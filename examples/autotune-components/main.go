// Auto-tuned connected components: demonstrates the paper's future-work
// features implemented in this reproduction — auto-tuning the worker/mover
// split and the CPU:MIC partitioning ratio — plus the per-superstep trace,
// on the ConnectedComponents extension app.
package main

import (
	"fmt"
	"log"

	"hetgraph"
)

func main() {
	log.SetFlags(0)

	g, err := hetgraph.GenerateCommunity(hetgraph.DefaultCommunity(12000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("graph:", hetgraph.Stats(g))

	newApp := func() hetgraph.AppF32 { return hetgraph.NewConnectedComponents() }

	// 1. Tune the pipelined worker/mover split on the MIC.
	split, err := hetgraph.TuneWorkerMoverSplit(newApp, g, hetgraph.MIC(), hetgraph.TuneBudget{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned MIC split: %d workers + %d movers (probe %.3f ms; paper's default is 180+60)\n",
		split.Workers, split.Movers, 1e3*split.ProbeSimSeconds)
	for _, p := range split.Probes {
		fmt.Printf("  probe %3d+%-3d -> %.3f ms\n", p.Workers, p.Movers, 1e3*p.SimSeconds)
	}

	// 2. Tune the CPU:MIC partitioning ratio.
	optCPU := hetgraph.Options{Dev: hetgraph.CPU(), Scheme: hetgraph.SchemeLocking, Vectorized: true}
	optMIC := hetgraph.Options{
		Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, Vectorized: true,
		Workers: split.Workers, Movers: split.Movers,
	}
	ratio, err := hetgraph.TunePartitionRatio(newApp, g, hetgraph.PartitionHybrid, optCPU, optMIC, hetgraph.TuneBudget{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned CPU:MIC ratio: %d:%d (probe %.3f ms)\n", ratio.Ratio.A, ratio.Ratio.B, 1e3*ratio.ProbeSimSeconds)

	// 3. Full heterogeneous run with the tuned configuration and a trace.
	assign, err := hetgraph.Partition(hetgraph.PartitionHybrid, g, ratio.Ratio)
	if err != nil {
		log.Fatal(err)
	}
	rec := hetgraph.NewTraceRecorder()
	optCPU.Trace, optMIC.Trace = rec, rec
	app := hetgraph.NewConnectedComponents()
	res, err := hetgraph.RunF32Hetero(app, g, assign, optCPU, optMIC)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconnected components: %d components in %d supersteps, sim %.3f ms (exec %.3f + comm %.3f)\n",
		app.NumComponents(), res.Iterations, 1e3*res.SimSeconds, 1e3*res.ExecSeconds, 1e3*res.CommSeconds)

	ok, detail := hetgraph.VerifyAgainstSequential("cc", app, g, 0, 0)
	fmt.Println("verify:", ok, "—", detail)

	fmt.Println("\ntrace summary:")
	fmt.Print(hetgraph.FormatTraceSummary(rec.Summarize()))
}
