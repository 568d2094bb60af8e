// Benchmarks regenerating the paper's evaluation artifacts (one benchmark
// per figure/table series, on small-scale workloads so `go test -bench=.`
// terminates quickly) plus microbenchmarks of the runtime's building blocks.
//
// Every figure benchmark reports the simulated device seconds per run as
// "sim-ms" via b.ReportMetric; wall time (ns/op) reflects this host, not the
// modeled node. The full-scale harness is `cmd/hetgraph-bench`.
package hetgraph_test

import (
	"math"
	"sync"
	"testing"

	"hetgraph"
	"hetgraph/internal/bench"
	"hetgraph/internal/core"
	"hetgraph/internal/csb"

	"hetgraph/internal/machine"
	"hetgraph/internal/metis"
	"hetgraph/internal/partition"
	"hetgraph/internal/queue"
	"hetgraph/internal/vec"
)

var (
	loadOnce  sync.Once
	workloads bench.Workloads
	loadErr   error
)

func benchWorkloads(b *testing.B) bench.Workloads {
	b.Helper()
	loadOnce.Do(func() {
		workloads, loadErr = bench.Load(bench.ScaleSmall())
	})
	if loadErr != nil {
		b.Fatal(loadErr)
	}
	return workloads
}

func benchSpec(b *testing.B, name string) bench.AppSpec {
	b.Helper()
	spec, err := bench.SpecByName(bench.Specs(benchWorkloads(b)), name)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// benchFig5 runs the seven configurations of one Figure-5 panel as
// sub-benchmarks.
func benchFig5(b *testing.B, app string) {
	spec := benchSpec(b, app)
	cpu, mic := machine.CPU(), machine.MIC()
	loop := func(b *testing.B, f func() (float64, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim, err := f()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(sim*1e3, "sim-ms")
		}
	}
	run := func(name string, f func() (float64, error)) {
		b.Run(name, func(b *testing.B) { loop(b, f) })
	}
	frame := func(dev machine.DeviceSpec, scheme core.Scheme) func() (float64, error) {
		return func() (float64, error) {
			res, err := spec.RunFramework(core.Options{Dev: dev, Scheme: scheme, Vectorized: true})
			return res.SimSeconds, err
		}
	}
	run("CPU_OMP", func() (float64, error) { r, err := spec.RunOMP(cpu, 0); return r.SimSeconds, err })
	run("CPU_Lock", frame(cpu, core.SchemeLocking))
	run("CPU_Pipe", frame(cpu, core.SchemePipelined))
	run("MIC_OMP", func() (float64, error) { r, err := spec.RunOMP(mic, 0); return r.SimSeconds, err })
	run("MIC_Lock", frame(mic, core.SchemeLocking))
	run("MIC_Pipe", frame(mic, core.SchemePipelined))
	b.Run("CPU_MIC", func(b *testing.B) {
		// Partitioning is set-up, not engine work: do it once, outside the
		// timed loop, so the row measures the heterogeneous run alone.
		assign, err := spec.HeteroAssign(spec.HeteroMethod)
		if err != nil {
			b.Fatal(err)
		}
		o0, o1 := spec.HeteroOptions()
		b.ResetTimer()
		loop(b, func() (float64, error) {
			res, err := spec.RunHetero(assign, o0, o1)
			return res.SimSeconds, err
		})
	})
}

func BenchmarkFig5aPageRank(b *testing.B) { benchFig5(b, "PageRank") }
func BenchmarkFig5bBFS(b *testing.B)      { benchFig5(b, "BFS") }
func BenchmarkFig5cSC(b *testing.B)       { benchFig5(b, "SC") }
func BenchmarkFig5dSSSP(b *testing.B)     { benchFig5(b, "SSSP") }
func BenchmarkFig5eTopoSort(b *testing.B) { benchFig5(b, "TopoSort") }

// BenchmarkFig5fVectorization reports the message-processing sub-step time
// with and without SIMD reduction for the three reducible applications.
func BenchmarkFig5fVectorization(b *testing.B) {
	for _, app := range []string{"PageRank", "SSSP", "TopoSort"} {
		spec := benchSpec(b, app)
		for _, dev := range []machine.DeviceSpec{machine.CPU(), machine.MIC()} {
			for _, vecOn := range []bool{false, true} {
				name := app + "/" + dev.Name + "/novec"
				if vecOn {
					name = app + "/" + dev.Name + "/vec"
				}
				scheme := core.SchemeLocking
				if dev.Name == "MIC" {
					scheme = spec.MICScheme
				}
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res, err := spec.RunFramework(core.Options{Dev: dev, Scheme: scheme, Vectorized: vecOn})
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(res.Phases.Process*1e3, "msgproc-sim-ms")
						b.ReportMetric(res.SimSeconds*1e3, "sim-ms")
					}
				})
			}
		}
	}
}

// BenchmarkFig6Partitioning reports heterogeneous time under the three
// partitioning schemes per application.
func BenchmarkFig6Partitioning(b *testing.B) {
	for _, app := range []string{"PageRank", "BFS", "SC", "SSSP", "TopoSort"} {
		spec := benchSpec(b, app)
		for _, method := range []partition.Method{partition.MethodContinuous, partition.MethodRoundRobin, partition.MethodHybrid} {
			b.Run(app+"/"+method.String(), func(b *testing.B) {
				assign, err := spec.HeteroAssign(method)
				if err != nil {
					b.Fatal(err)
				}
				o0, o1 := spec.HeteroOptions()
				for i := 0; i < b.N; i++ {
					res, err := spec.RunHetero(assign, o0, o1)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.ExecSeconds*1e3, "exec-sim-ms")
					b.ReportMetric(res.CommSeconds*1e3, "comm-sim-ms")
				}
			})
		}
	}
}

// BenchmarkTable2 reports the sequential baselines and parallel runs whose
// ratios form Table II.
func BenchmarkTable2(b *testing.B) {
	for _, app := range []string{"PageRank", "BFS", "SC", "SSSP", "TopoSort"} {
		spec := benchSpec(b, app)
		b.Run(app+"/CPUSeq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, _, err := spec.RunSeq(machine.CPU())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(sim*1e3, "sim-ms")
			}
		})
		b.Run(app+"/MICSeq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, _, err := spec.RunSeq(machine.MIC())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(sim*1e3, "sim-ms")
			}
		})
		b.Run(app+"/CPUMulti", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := spec.RunFramework(core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SimSeconds*1e3, "sim-ms")
			}
		})
		b.Run(app+"/MICMany", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := spec.RunFramework(core.Options{Dev: machine.MIC(), Scheme: spec.MICScheme, Vectorized: true})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SimSeconds*1e3, "sim-ms")
			}
		})
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblationCSBMode(b *testing.B) {
	spec := benchSpec(b, "TopoSort")
	for _, mode := range []csb.InsertMode{csb.OneToOne, csb.Dynamic} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := spec.RunFramework(core.Options{
					Dev: machine.MIC(), Scheme: spec.MICScheme, Vectorized: true, CSBMode: mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SimSeconds*1e3, "sim-ms")
				b.ReportMetric(float64(res.Counters.VecRows), "vec-rows")
			}
		})
	}
}

func BenchmarkAblationGroupFactorK(b *testing.B) {
	spec := benchSpec(b, "PageRank")
	for _, k := range []int{1, 2, 4} {
		b.Run("k="+string(rune('0'+k)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := spec.RunFramework(core.Options{
					Dev: machine.MIC(), Scheme: spec.MICScheme, Vectorized: true, K: k,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SimSeconds*1e3, "sim-ms")
			}
		})
	}
}

func BenchmarkAblationMoverSplit(b *testing.B) {
	spec := benchSpec(b, "TopoSort")
	total := machine.MIC().Threads()
	for _, movers := range []int{20, 60, 120} {
		name := map[int]string{20: "220+20", 60: "180+60", 120: "120+120"}[movers]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := spec.RunFramework(core.Options{
					Dev: machine.MIC(), Scheme: core.SchemePipelined, Vectorized: true,
					Workers: total - movers, Movers: movers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SimSeconds*1e3, "sim-ms")
			}
		})
	}
}

func BenchmarkAblationMetisBlocks(b *testing.B) {
	spec := benchSpec(b, "PageRank")
	for _, blocks := range []int{4, 16, 64} {
		b.Run("blocks="+string(rune('0'+blocks/10))+string(rune('0'+blocks%10)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				assign, err := partition.Hybrid(spec.Graph, spec.Ratio, blocks, metis.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(partition.CrossEdges(spec.Graph, assign)), "cross-edges")
			}
		})
	}
}

// Microbenchmarks of the runtime's building blocks.

func BenchmarkCSBInsert(b *testing.B) {
	g := benchWorkloads(b).Pokec
	buf, err := csb.Build(g, csb.Config{Width: vec.WidthMIC, K: 2, Identity: 0, Mode: csb.Dynamic})
	if err != nil {
		b.Fatal(err)
	}
	// Insert along the real edge list (each destination receives exactly
	// its in-degree), resetting the buffer between passes.
	dsts := g.Edges
	b.ResetTimer()
	pos := 0
	for range b.N {
		if pos == len(dsts) {
			b.StopTimer()
			buf.Reset()
			pos = 0
			b.StartTimer()
		}
		buf.Insert(dsts[pos], 1)
		pos++
	}
}

func BenchmarkSPSCQueue(b *testing.B) {
	q, err := queue.NewSPSC[int64](1024)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		// Alternate push/pop from one goroutine at a time is not SPSC;
		// keep it single-threaded per op pair instead.
		for pb.Next() {
			q.TryPush(1)
			q.TryPop()
		}
	})
}

func BenchmarkVecReduceMinMIC(b *testing.B) {
	arr := vec.MustArrayF32(vec.WidthMIC, 64)
	for r := 0; r < 64; r++ {
		for l := 0; l < 16; l++ {
			arr.Set(r, l, float32(r*16+l))
		}
	}
	b.ResetTimer()
	for range b.N {
		arr.ReduceMin(64)
	}
}

func BenchmarkMetisPartition(b *testing.B) {
	g := benchWorkloads(b).Pokec
	for range b.N {
		if _, err := metis.Partition(g, 16, metis.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPIQuickstart exercises the facade end to end (and guards
// the public API against bit-rot).
func BenchmarkPublicAPIQuickstart(b *testing.B) {
	g, err := hetgraph.GeneratePowerLaw(hetgraph.DefaultPowerLaw(5000))
	if err != nil {
		b.Fatal(err)
	}
	g, err = hetgraph.AddRandomWeights(g, 0, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for range b.N {
		app := hetgraph.NewSSSP(0)
		res, err := hetgraph.Run(app, g, hetgraph.Options{
			Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, Vectorized: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged || math.IsInf(float64(app.Dist[1]), 1) && g.OutDegree(0) > 0 {
			b.Fatal("unexpected result")
		}
		b.ReportMetric(res.SimSeconds*1e3, "sim-ms")
	}
}
