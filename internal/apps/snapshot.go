package apps

import (
	"fmt"

	"hetgraph/internal/checkpoint"
	"hetgraph/internal/graph"
)

// The float32 applications and label propagation implement
// checkpoint.Snapshotter so a device group can checkpoint them at superstep
// boundaries and finish on the surviving ranks after a device failure. Each
// snapshot carries the full per-vertex state array; derived state
// (PageRank's per-edge share) is recomputed on restore.

// Snapshot implements checkpoint.Snapshotter.
func (p *PageRank) Snapshot() ([]byte, error) {
	return checkpoint.EncodeF32(p.Ranks), nil
}

// Restore implements checkpoint.Snapshotter.
func (p *PageRank) Restore(state []byte) error {
	ranks, err := checkpoint.DecodeF32(state)
	if err != nil {
		return err
	}
	if len(ranks) != len(p.Ranks) {
		return fmt.Errorf("apps: PageRank snapshot has %d vertices, app has %d", len(ranks), len(p.Ranks))
	}
	p.Ranks = ranks
	for v := range p.Ranks {
		if d := p.g.OutDegree(graph.VertexID(v)); d > 0 {
			p.share[v] = p.Ranks[v] / float32(d)
		}
	}
	return nil
}

// Snapshot implements checkpoint.Snapshotter.
func (b *BFS) Snapshot() ([]byte, error) {
	return checkpoint.EncodeI32(b.Levels), nil
}

// Restore implements checkpoint.Snapshotter.
func (b *BFS) Restore(state []byte) error {
	levels, err := checkpoint.DecodeI32(state)
	if err != nil {
		return err
	}
	if len(levels) != len(b.Levels) {
		return fmt.Errorf("apps: BFS snapshot has %d vertices, app has %d", len(levels), len(b.Levels))
	}
	b.Levels = levels
	return nil
}

// Snapshot implements checkpoint.Snapshotter.
func (s *SSSP) Snapshot() ([]byte, error) {
	return checkpoint.EncodeF32(s.Dist), nil
}

// Restore implements checkpoint.Snapshotter.
func (s *SSSP) Restore(state []byte) error {
	dist, err := checkpoint.DecodeF32(state)
	if err != nil {
		return err
	}
	if len(dist) != len(s.Dist) {
		return fmt.Errorf("apps: SSSP snapshot has %d vertices, app has %d", len(dist), len(s.Dist))
	}
	s.Dist = dist
	return nil
}

// Snapshot implements checkpoint.Snapshotter.
func (c *ConnectedComponents) Snapshot() ([]byte, error) {
	return checkpoint.EncodeF32(c.Labels), nil
}

// Restore implements checkpoint.Snapshotter.
func (c *ConnectedComponents) Restore(state []byte) error {
	labels, err := checkpoint.DecodeF32(state)
	if err != nil {
		return err
	}
	if len(labels) != len(c.Labels) {
		return fmt.Errorf("apps: ConnectedComponents snapshot has %d vertices, app has %d", len(labels), len(c.Labels))
	}
	c.Labels = labels
	return nil
}

// Snapshot implements checkpoint.Snapshotter. Label propagation rebuilds its
// messages from the labels every superstep, so the label array is its whole
// state.
func (l *LabelPropagation) Snapshot() ([]byte, error) {
	return checkpoint.EncodeI32(l.Labels), nil
}

// Restore implements checkpoint.Snapshotter.
func (l *LabelPropagation) Restore(state []byte) error {
	labels, err := checkpoint.DecodeI32(state)
	if err != nil {
		return err
	}
	if len(labels) != len(l.Labels) {
		return fmt.Errorf("apps: LabelPropagation snapshot has %d vertices, app has %d", len(labels), len(l.Labels))
	}
	l.Labels = labels
	return nil
}
