package csb

import (
	"sync/atomic"

	"hetgraph/internal/graph"
	"hetgraph/internal/vec"
)

// The message-processing step treats "the set of all vector arrays from all
// vertex groups as task units" (§IV-D). A task index t identifies array
// t%K of group t/K.

// Lane describes one occupied column of a task's vector array: which vertex
// owns it, which lane it sits in, and how many messages it received.
type Lane struct {
	Vertex graph.VertexID
	Lane   int
	Count  int32
}

// NumTasks returns the number of vector arrays across all groups.
func (b *Buffer) NumTasks() int { return len(b.groups) * b.cfg.K }

// Task returns the vector array of task t and the number of rows that hold
// messages (the maximum fill among the array's lanes). A dynamic-mode buffer
// condenses messages into the front columns, so trailing arrays of a group
// report zero rows and are skipped — this is exactly the SIMD-lane saving of
// dynamic column allocation.
func (b *Buffer) Task(t int) (*vec.ArrayF32, int) {
	gi, ai := t/b.cfg.K, t%b.cfg.K
	gr := &b.groups[gi]
	w := int(b.cfg.Width)
	base := ai * w
	rows := int32(0)
	for l := 0; l < w; l++ {
		if f := atomic.LoadInt32(&gr.fill[base+l]); f > rows {
			rows = f
		}
	}
	return &gr.arrays[ai], int(rows)
}

// Lanes appends the occupied lanes of task t to out and returns it. Lanes
// are reported in lane order; each carries the destination vertex resolved
// through the group's owner table and the buffer's sorted order.
func (b *Buffer) Lanes(t int, out []Lane) []Lane {
	gi, ai := t/b.cfg.K, t%b.cfg.K
	gr := &b.groups[gi]
	w := int(b.cfg.Width)
	base := ai * w
	for l := 0; l < w; l++ {
		col := base + l
		f := atomic.LoadInt32(&gr.fill[col])
		if f == 0 {
			continue
		}
		posIn := atomic.LoadInt32(&gr.owner[col])
		v := b.sorted[gi*b.groupWidth+int(posIn)]
		out = append(out, Lane{Vertex: v, Lane: l, Count: f})
	}
	return out
}

// OccupancyStats reports, over all occupied rows of all tasks, the total
// number of rows and the total number of occupied cells within those rows.
// occupied/total/width is the SIMD lane occupancy; bubbles are what keep the
// measured vectorization speedup below the lane count (§V-D).
func (b *Buffer) OccupancyStats() (rows int64, occupiedCells int64) {
	w := int(b.cfg.Width)
	for t := 0; t < b.NumTasks(); t++ {
		gi, ai := t/b.cfg.K, t%b.cfg.K
		gr := &b.groups[gi]
		base := ai * w
		maxF := int32(0)
		var cells int64
		for l := 0; l < w; l++ {
			f := atomic.LoadInt32(&gr.fill[base+l])
			cells += int64(f)
			if f > maxF {
				maxF = f
			}
		}
		rows += int64(maxF)
		occupiedCells += cells
	}
	return rows, occupiedCells
}
