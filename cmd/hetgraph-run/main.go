// Command hetgraph-run executes one of the five evaluated applications on a
// graph file, on a single modeled device or heterogeneously across an
// N-rank device group (the classic CPU+MIC pair by default; -ranks or
// -devices for larger groups).
//
// Usage:
//
//	hetgraph-run -graph pokec.adj -app bfs -device mic -scheme lock
//	hetgraph-run -graph pokecw.adj -app sssp -device both -partition pokec.part
//	hetgraph-run -graph pokec.adj -app pagerank -iters 10 -device cpu -baseline omp
//	hetgraph-run -graph pokec.adj -app pagerank -device both -partition pokec.part \
//	    -checkpoint-every 1 -checkpoint-dir ./ckpt        # durable checkpoints
//	hetgraph-run ... -checkpoint-dir ./ckpt -resume       # cold-start from them
//	hetgraph-run ... -fault-plan 'rank1:flaky@3x2' -rejoin -checkpoint-every 1
//	                                                      # degrade, then heal
//	hetgraph-run -graph pokec.adj -app pagerank -device both -ranks 4 \
//	    -fault-plan 'rank2:drop@3;rank2:recover@5' -rejoin -checkpoint-every 1
//	                        # 4-rank group: degrade to 3 ranks, heal back to 4
//
// SIGINT/SIGTERM abort the run cleanly at the next superstep boundary: the
// final checkpoint is captured and the -report JSON is still written.
//
// Exit codes: 0 success, 1 runtime failure (including a run fenced by a
// network partition, which fails with a typed PartitionedError naming the
// majority and minority sides), 2 usage error (bad flags or invalid
// configuration), 130 aborted by SIGINT/SIGTERM.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hetgraph"
)

// faultGrammar is printed when -fault-plan does not parse, so the operator
// does not have to dig the event syntax out of the docs mid-incident.
const faultGrammar = `fault plan grammar (events separated by ';' or ','):
  rank<r>:drop@<step>                     rank r dies at exchange round <step>
  rank<r>:delay@<step>:<duration>         rank r stalls before the round (e.g. 5ms)
  rank<r>:fail@<step>x<n>                 link fails <n> consecutive attempts
  rank<r>:panic@<step>:<phase>            panic in generate | process | update
  rank<r>:iofail@<step>:<op>              checkpoint commit fails: write | sync | rename
  rank<r>:torn@<step>                     checkpoint write silently truncated
  rank<r>:flaky@<step>[x<down>]           rank r dies at <step>, recovers <down> supersteps later (default 1)
  rank<r>:recover@<step>                  rank r recovered at <step> (pairs with an earlier failure)
  rank<r>:corrupt@<step>[x<n>]            rank r's outgoing packets corrupted in flight for <n> attempts (default 1);
                                          the receiver drops them on checksum and NACKs a retransmit
  rank<r>:slow@<step>:<duration>          rank r's compute stalls by <duration> at <step> (gray failure: the
                                          stall is charged to the rank, feeding the straggler detector)
  rank<r>:gslow@<step>x<n>:<duration>     sustained gray failure: the same stall every superstep for <n>
                                          supersteps starting at <step>
  rank<r>:dup@<step>                      rank r's packets delivered twice; duplicates are fenced by sequence
  rank<r>:reorder@<step>                  adjacent packets on rank r's links swapped; reorders are fenced
  partition@<step>:{<r>,..}|{<r>,..}      sever every link between the two rank sets; the majority side
                                          continues degraded, the minority is fenced (PartitionedError)
  heal@<step>                             end the most recent partition and readmit the fenced side
example: "rank1:drop@3;rank0:delay@2:5ms" or "partition@3:{0,1}|{2,3};heal@6"  (see docs/robustness.md)`

// usageError marks a configuration mistake (exit 2) as opposed to a
// runtime failure (exit 1).
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hetgraph-run:", err)
		var ue usageError
		var ioe *hetgraph.InvalidOptionsError
		if errors.As(err, &ue) || errors.As(err, &ioe) {
			os.Exit(2)
		}
		var aerr *hetgraph.RunAbortedError
		if errors.As(err, &aerr) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hetgraph-run", flag.ContinueOnError)
	var (
		graphPath  = fs.String("graph", "", "input graph file (required)")
		appName    = fs.String("app", "pagerank", "application: pagerank | bfs | sssp | toposort | cc | semicluster")
		device     = fs.String("device", "mic", "device: cpu | mic | both")
		scheme     = fs.String("scheme", "pipe", "message generation scheme: lock | pipe")
		baseline   = fs.String("baseline", "", "run a baseline instead: omp")
		partPath   = fs.String("partition", "", "partition file for -device both (ranks >2 auto-partition by thread weight when omitted)")
		ranks      = fs.Int("ranks", 2, "device-group size for -device both: rank 0 is the CPU, the rest MICs (see -devices for an explicit list)")
		devices    = fs.String("devices", "", `explicit device group for -device both, e.g. "cpu,mic,mic" (overrides -ranks)`)
		source     = fs.Int("source", 0, "source vertex for bfs/sssp")
		iters      = fs.Int("iters", 0, "iteration bound (0 = converge; pagerank default 10)")
		novec      = fs.Bool("novec", false, "disable SIMD message reduction")
		genBatch   = fs.Int("genbatch", 0, "pipelined handoff batch size (0/1 = per-element; try 64)")
		traceCSV   = fs.String("trace", "", "write a per-superstep phase timeline CSV to this path")
		verify     = fs.Bool("verify", false, "check the result against the sequential reference")
		ckEvery    = fs.Int("checkpoint-every", 0, "checkpoint vertex state every N supersteps (0 = off; -device both)")
		ckDir      = fs.String("checkpoint-dir", "", "flush checkpoints durably to this directory (atomic commits + manifest)")
		ckRetain   = fs.Int("checkpoint-retain", 0, "on-disk checkpoint generations to keep (0 = default, min 2)")
		resume     = fs.Bool("resume", false, "cold-start from the newest checkpoint in -checkpoint-dir")
		rejoin     = fs.Bool("rejoin", false, "heal after a device failure: restart the failed rank from a checkpoint when the fault plan declares it recovered (requires -checkpoint-every or -checkpoint-dir)")
		exTimeout  = fs.Duration("exchange-timeout", 0, "deadline per cross-device exchange round (0 = unbounded)")
		faultPlan  = fs.String("fault-plan", "", `inject faults, e.g. "rank1:drop@3;rank0:delay@2:5ms" (see docs/robustness.md)`)
		strThresh  = fs.Duration("straggler-threshold", 0, "EWMA superstep latency over this marks a rank suspect, sustained excess confirms a straggler (0 = health scoring off; -device both)")
		strPolicy  = fs.String("straggler-policy", "off", "straggler mitigation: off | demote | demote-rehab (demote soft-degrades a confirmed straggler at a checkpoint barrier; demote-rehab also restores it once its latency re-normalizes; requires -straggler-threshold and -checkpoint-every)")
		report     = fs.String("report", "", "write a versioned JSON run report (phases, counters, events) to this path")
		debugAddr  = fs.String("debug-addr", "", `serve /debug/pprof/, /debug/vars, and /metrics on this address (e.g. "localhost:6060")`)
		jobTimeout = fs.Duration("job-timeout", 0, "wall deadline for the run: abort at the next superstep boundary once elapsed (0 = unbounded; exit 130 with partial results, like SIGINT)")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *graphPath == "" {
		fs.Usage()
		return usagef("-graph is required")
	}

	// Graceful shutdown: SIGINT/SIGTERM and the -job-timeout deadline both
	// stop the run cooperatively at the next superstep boundary — the final
	// checkpoint is captured, the report/trace are still written, and the
	// process exits 130. A second signal kills the process the default way
	// (signal.Stop re-arms it).
	ctl := hetgraph.NewAbortController()
	defer ctl.Stop()
	abort := ctl.Channel()
	if *jobTimeout > 0 {
		ctl.AbortAfter(*jobTimeout)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "hetgraph-run: received %v, aborting at the next superstep boundary (report and final checkpoint still written; signal again to kill)\n", s)
		signal.Stop(sigc)
		ctl.Abort()
	}()

	g, err := hetgraph.LoadGraph(*graphPath)
	if err != nil {
		return err
	}
	if *appName == "pagerank" && *iters == 0 {
		*iters = 10
	}

	schemeOf := func(s string) hetgraph.Scheme {
		if s == "lock" {
			return hetgraph.SchemeLocking
		}
		return hetgraph.SchemePipelined
	}
	devOf := func(s string) hetgraph.DeviceSpec {
		if s == "cpu" {
			return hetgraph.CPU()
		}
		return hetgraph.MIC()
	}

	// The metrics collector backs both -report and -debug-addr; the baseline
	// bypasses the instrumented engine entirely, so the combination is a
	// configuration mistake rather than a silently empty report.
	var col *hetgraph.MetricsCollector
	if *report != "" || *debugAddr != "" {
		if *baseline != "" {
			return usagef("-report/-debug-addr cannot be combined with -baseline (the baseline has no phase instrumentation)")
		}
		col = hetgraph.NewMetricsCollector()
	}
	if *debugAddr != "" {
		dbg, err := hetgraph.StartDebugServer(*debugAddr, col)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug server on http://%s (/debug/pprof/, /debug/vars, /metrics)\n", dbg.Addr())
	}

	var (
		app hetgraph.AppF32
		// sc is set instead of app for Semi-Clustering, whose structured
		// messages run on the generic engine.
		sc *hetgraph.SemiClustering
	)
	switch *appName {
	case "pagerank":
		app = hetgraph.NewPageRank()
	case "bfs":
		app = hetgraph.NewBFS(hetgraph.VertexID(*source))
	case "sssp":
		app = hetgraph.NewSSSP(hetgraph.VertexID(*source))
	case "toposort":
		app = hetgraph.NewTopoSort()
	case "cc":
		app = hetgraph.NewConnectedComponents()
	case "semicluster":
		sc = hetgraph.NewSemiClustering(3, 4, 0.2)
		if *iters == 0 {
			*iters = 5
		}
	default:
		return usagef("unknown -app %q", *appName)
	}
	if sc != nil && (*baseline != "" || *verify) {
		return usagef("-baseline and -verify support the float32 apps only")
	}

	if *baseline == "omp" {
		res, err := hetgraph.RunOMP(app, g, devOf(*device), 0, *iters)
		if err != nil {
			return err
		}
		fmt.Printf("%s OMP on %s: %d iterations, sim %.6fs, wall %.3fs\n",
			*appName, *device, res.Iterations, res.SimSeconds, res.WallSeconds)
		return nil
	}

	var rec *hetgraph.TraceRecorder
	if *traceCSV != "" {
		rec = hetgraph.NewTraceRecorder()
	}
	var inj *hetgraph.FaultInjector
	if *faultPlan != "" {
		plan, err := hetgraph.ParseFaultPlan(*faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, faultGrammar)
			return usagef("bad -fault-plan: %w", err)
		}
		if inj, err = hetgraph.NewFaultInjector(plan); err != nil {
			fmt.Fprintln(os.Stderr, faultGrammar)
			return usagef("bad -fault-plan: %w", err)
		}
	}
	policy, err := hetgraph.ParseStragglerPolicy(*strPolicy)
	if err != nil {
		return usagef("bad -straggler-policy: %w", err)
	}
	opt := hetgraph.Options{
		Scheme:           schemeOf(*scheme),
		Vectorized:       !*novec,
		MaxIterations:    *iters,
		GenBatchSize:     *genBatch,
		Trace:            rec,
		CheckpointEvery:  *ckEvery,
		CheckpointDir:    *ckDir,
		CheckpointRetain: *ckRetain,
		Resume:           *resume,
		Rejoin:           *rejoin,
		ExchangeTimeout:  *exTimeout,
		Fault:            inj,
		Abort:            abort,

		StragglerThreshold: *strThresh,
		StragglerPolicy:    policy,
	}
	if col != nil {
		// Assign through the guard: a nil *MetricsCollector stored in the
		// interface field would defeat the engine's nil-sink fast path.
		opt.Metrics = col
	}
	var (
		repConfig  []hetgraph.RunReportConfig
		repDevices []hetgraph.RunReportDevice
		repTotals  hetgraph.RunReportTotals
		// abortErr is set when the run was stopped by SIGINT/SIGTERM: the
		// partial result still flows into the summary and the report, and
		// run() returns it at the end (exit 130).
		abortErr *hetgraph.RunAbortedError
	)
	switch *device {
	case "cpu", "mic":
		if *ckDir != "" || *resume || *rejoin {
			return usagef("-checkpoint-dir/-resume/-rejoin require -device both (recovery backs the heterogeneous run)")
		}
		if policy != hetgraph.StragglerOff || *strThresh != 0 {
			return usagef("-straggler-policy/-straggler-threshold require -device both (the supervisor scores ranks of a device group)")
		}
		opt.Dev = devOf(*device)
		var res hetgraph.Result
		if sc != nil {
			res, err = hetgraph.RunSemiClustering(sc, g, opt)
		} else {
			res, err = hetgraph.Run(app, g, opt)
		}
		if err != nil && !errors.As(err, &abortErr) {
			return err
		}
		fmt.Printf("%s on %s (%v, vec=%v): %d iterations, sim %.6fs (gen %.6f, proc %.6f, upd %.6f), wall %.3fs\n",
			*appName, *device, opt.Scheme, opt.Vectorized, res.Iterations, res.SimSeconds,
			res.Phases.Generate, res.Phases.Process, res.Phases.Update, res.WallSeconds)
		repConfig = []hetgraph.RunReportConfig{reportConfigOf(0, opt, *faultPlan)}
		repDevices = []hetgraph.RunReportDevice{deviceReportOf(0, opt.Dev.Name, res)}
		repTotals = hetgraph.RunReportTotals{
			Iterations: res.Iterations, Converged: res.Converged,
			SimSeconds: res.SimSeconds, WallSeconds: res.WallSeconds,
		}
		if *verify && abortErr == nil {
			if err := verifyResult(*appName, app, g, *source, *iters); err != nil {
				return err
			}
		}
	case "both":
		specs, err := deviceGroupOf(*devices, *ranks)
		if err != nil {
			return err
		}
		assign, err := loadOrMakeAssign(*partPath, g, specs)
		if err != nil {
			return err
		}
		opts := groupOptions(opt, specs)
		var res hetgraph.HeteroResult
		if sc != nil {
			res, err = hetgraph.RunSemiClusteringHetero(sc, g, assign, opts...)
		} else {
			res, err = hetgraph.RunF32Hetero(app, g, assign, opts...)
		}
		if err != nil && !errors.As(err, &abortErr) {
			return err
		}
		fmt.Printf("%s on %s: %d iterations, sim %.6fs (exec %.6f + comm %.6f), wall %.3fs\n",
			*appName, groupLabel(specs), res.Iterations, res.SimSeconds, res.ExecSeconds, res.CommSeconds, res.WallSeconds)
		for r, o := range opts {
			repConfig = append(repConfig, reportConfigOf(r, o, *faultPlan))
			repDevices = append(repDevices, deviceReportOf(r, o.Dev.Name, res.Dev[r]))
		}
		repTotals = hetgraph.RunReportTotals{
			Iterations: res.Iterations, Converged: res.Converged,
			SimSeconds: res.SimSeconds, WallSeconds: res.WallSeconds,
			ExecSeconds: res.ExecSeconds, CommSeconds: res.CommSeconds,
			Ranks: len(specs), FailedRanks: res.FailedRanks,
		}
		if res.Degraded {
			repTotals.Degraded = true
			repTotals.FailedRank = res.FailedRank
			repTotals.FailedSuperstep = res.FailedSuperstep
			repTotals.ResumedSuperstep = res.ResumedSuperstep
		}
		if res.DiskResumed {
			repTotals.DiskResumed = true
			repTotals.ResumedSuperstep = res.ResumedSuperstep
			repTotals.ResumedGeneration = res.ResumedGeneration
		}
		if res.Healed {
			repTotals.Healed = true
			repTotals.RejoinSuperstep = res.RejoinSuperstep
		}
		repTotals.DegradedSupersteps = res.DegradedSupersteps
		repTotals.SuspectRanks = res.SuspectRanks
		repTotals.SoftDegraded = res.SoftDegraded
		repTotals.SoftDegradeSuperstep = res.SoftDegradeSuperstep
		repTotals.Rehabilitated = res.Rehabilitated
		repTotals.RehabilitateSuperstep = res.RehabilitateSuperstep
		repTotals.CorruptDrops = res.Integrity.CorruptDrops
		repTotals.DupDrops = res.Integrity.DupDrops
		repTotals.StaleDrops = res.Integrity.StaleDrops
		repTotals.Retransmits = res.Integrity.Retransmits
		if res.Partitioned {
			repTotals.Partitioned = true
			repTotals.PartitionSuperstep = res.PartitionSuperstep
			repTotals.PartitionMajority = res.PartitionMajority
			repTotals.PartitionMinority = res.PartitionMinority
			healNote := ""
			if res.Healed {
				healNote = ", rejoined on heal"
			}
			fmt.Printf("partition: at superstep %d into majority %v | minority %v (minority fenced%s)\n",
				res.PartitionSuperstep, res.PartitionMajority, res.PartitionMinority, healNote)
		}
		if res.Integrity != (hetgraph.IntegrityStats{}) {
			fmt.Printf("retransmits: %d (corrupt drops %d, dup drops %d, stale drops %d)\n",
				res.Integrity.Retransmits, res.Integrity.CorruptDrops,
				res.Integrity.DupDrops, res.Integrity.StaleDrops)
		}
		if res.DiskResumed {
			fmt.Printf("resumed: cold-started from %s generation %d (superstep %d)\n",
				*ckDir, res.ResumedGeneration, res.ResumedSuperstep)
		}
		if res.Healed {
			fmt.Printf("healed: rank %d rejoined at superstep %d after %d degraded supersteps\n",
				res.FailedRank, res.RejoinSuperstep, res.DegradedSupersteps)
		}
		for _, r := range res.SoftDegraded {
			fmt.Printf("soft_degraded: rank %d demoted at superstep %d\n", r, res.SoftDegradeSuperstep)
		}
		for _, r := range res.Rehabilitated {
			fmt.Printf("rehabilitated: rank %d restored at superstep %d\n", r, res.RehabilitateSuperstep)
		}
		if res.Degraded {
			at := "" // a panic failure carries no exchange superstep
			if res.FailedSuperstep >= 0 {
				at = fmt.Sprintf(" at superstep %d", res.FailedSuperstep)
			}
			if len(specs) == 2 {
				fmt.Printf("degraded: rank %d failed%s; resumed single-device from checkpointed superstep %d (%d recovery iterations)\n",
					res.FailedRank, at, res.ResumedSuperstep, res.Recovery.Iterations)
			} else {
				fmt.Printf("degraded: rank %d failed%s; resumed over the surviving ranks from checkpointed superstep %d (%d recovery iterations)\n",
					res.FailedRank, at, res.ResumedSuperstep, res.Recovery.Iterations)
			}
		}
		if len(res.FailedRanks) > 0 {
			fmt.Printf("down at finish: ranks %v\n", res.FailedRanks)
		}
		if *verify && abortErr == nil {
			if err := verifyResult(*appName, app, g, *source, *iters); err != nil {
				return err
			}
		}
	default:
		return usagef("unknown -device %q", *device)
	}
	if rec != nil {
		f, err := os.Create(*traceCSV)
		if err != nil {
			return err
		}
		if err := rec.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("trace summary:")
		fmt.Print(hetgraph.FormatTraceSummary(rec.Summarize()))
		fmt.Printf("timeline written to %s\n", *traceCSV)
	}
	if col != nil {
		rep := col.Report()
		rep.Tool = "hetgraph-run"
		rep.App = *appName
		rep.Graph = graphInfoOf(*graphPath, g)
		rep.Config = repConfig
		rep.Devices = repDevices
		rep.Totals = repTotals
		if err := finishReport(*report, rep); err != nil {
			return err
		}
	}
	if abortErr != nil {
		fmt.Printf("aborted: run stopped at superstep %d (partial results above)\n", abortErr.Superstep)
		return abortErr
	}
	return nil
}

// deviceGroupOf resolves -devices/-ranks into the device group for a
// heterogeneous run. An explicit -devices list wins; otherwise the group is
// the classic topology scaled out: one CPU plus ranks-1 MICs.
func deviceGroupOf(devices string, ranks int) ([]hetgraph.DeviceSpec, error) {
	if devices != "" {
		parts := strings.Split(devices, ",")
		specs := make([]hetgraph.DeviceSpec, 0, len(parts))
		for _, p := range parts {
			switch strings.ToLower(strings.TrimSpace(p)) {
			case "cpu":
				specs = append(specs, hetgraph.CPU())
			case "mic":
				specs = append(specs, hetgraph.MIC())
			default:
				return nil, usagef("bad -devices entry %q (want cpu or mic)", p)
			}
		}
		if len(specs) < 2 {
			return nil, usagef("-devices needs at least 2 entries, got %d", len(specs))
		}
		if ranks != 2 && ranks != len(specs) {
			return nil, usagef("-ranks %d disagrees with the %d entries of -devices", ranks, len(specs))
		}
		return specs, nil
	}
	if ranks < 2 {
		return nil, usagef("-ranks must be at least 2, got %d", ranks)
	}
	specs := make([]hetgraph.DeviceSpec, ranks)
	specs[0] = hetgraph.CPU()
	for r := 1; r < ranks; r++ {
		specs[r] = hetgraph.MIC()
	}
	return specs, nil
}

// groupLabel names the device group in summary lines ("CPU-MIC",
// "CPU-MIC-MIC-MIC", ...).
func groupLabel(specs []hetgraph.DeviceSpec) string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, "-")
}

// groupOptions clones the base options once per rank. CPUs keep the locking
// scheme (the pipelined worker/mover split is a MIC optimization).
func groupOptions(base hetgraph.Options, specs []hetgraph.DeviceSpec) []hetgraph.Options {
	opts := make([]hetgraph.Options, len(specs))
	for r, spec := range specs {
		o := base
		o.Dev = spec
		if spec.Name == "CPU" {
			o.Scheme = hetgraph.SchemeLocking
		}
		opts[r] = o
	}
	return opts
}

// loadOrMakeAssign loads the -partition file when given; groups larger than
// the classic pair may omit it and get a continuous partition weighted by
// each rank's hardware thread count.
func loadOrMakeAssign(partPath string, g *hetgraph.Graph, specs []hetgraph.DeviceSpec) ([]int32, error) {
	if partPath != "" {
		return hetgraph.LoadPartition(partPath)
	}
	if len(specs) == 2 {
		return nil, usagef("-device both requires -partition")
	}
	assign, err := hetgraph.PartitionN(hetgraph.PartitionContinuous, g, hetgraph.DeviceWeights(specs...))
	if err != nil {
		return nil, err
	}
	fmt.Printf("partitioned: continuous over %d ranks by thread weight\n", len(specs))
	return assign, nil
}

// graphInfoOf fingerprints the loaded graph for the run report.
func graphInfoOf(path string, g *hetgraph.Graph) hetgraph.RunReportGraph {
	return hetgraph.RunReportGraph{
		Path:     path,
		Vertices: int64(g.NumVertices()),
		Edges:    g.NumEdges(),
		Weighted: g.Weighted(),
	}
}

// reportConfigOf echoes one rank's engine options into the report.
func reportConfigOf(rank int, o hetgraph.Options, faultPlan string) hetgraph.RunReportConfig {
	c := hetgraph.RunReportConfig{
		Rank:              rank,
		Device:            o.Dev.Name,
		Scheme:            o.Scheme.String(),
		Vectorized:        o.Vectorized,
		Threads:           o.Threads,
		K:                 o.K,
		Workers:           o.Workers,
		Movers:            o.Movers,
		GenBatchSize:      o.GenBatchSize,
		MaxIterations:     o.MaxIterations,
		CheckpointEvery:   o.CheckpointEvery,
		CheckpointDir:     o.CheckpointDir,
		CheckpointRetain:  o.CheckpointRetain,
		Resume:            o.Resume,
		Rejoin:            o.Rejoin,
		ExchangeTimeoutNS: int64(o.ExchangeTimeout),
		FaultPlan:         faultPlan,
	}
	if o.StragglerPolicy != hetgraph.StragglerOff || o.StragglerThreshold != 0 {
		c.StragglerThresholdNS = int64(o.StragglerThreshold)
		c.StragglerPolicy = o.StragglerPolicy.String()
	}
	return c
}

// deviceReportOf folds one device's Result into the report.
func deviceReportOf(rank int, dev string, res hetgraph.Result) hetgraph.RunReportDevice {
	return hetgraph.RunReportDevice{
		Rank:       rank,
		Device:     dev,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Counters:   res.Counters,
		SimPhases: hetgraph.RunReportPhases{
			Generate: res.Phases.Generate,
			Process:  res.Phases.Process,
			Update:   res.Phases.Update,
			Exchange: res.Phases.Exchange,
		},
		SimSeconds: res.SimSeconds,
	}
}

// finishReport seals the assembled report and, when a path was given,
// writes it out.
func finishReport(path string, rep *hetgraph.RunReport) error {
	rep.Seal()
	if path == "" {
		return nil
	}
	if err := hetgraph.WriteRunReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("run report written to %s\n", path)
	return nil
}

// verifyResult re-runs the application through the sequential reference and
// compares, reporting PASS or failing the run.
func verifyResult(appName string, app hetgraph.AppF32, g *hetgraph.Graph, source, iters int) error {
	ok, detail := hetgraph.VerifyAgainstSequential(appName, app, g, hetgraph.VertexID(source), iters)
	if !ok {
		return fmt.Errorf("verify: FAIL — %s", detail)
	}
	fmt.Println("verify: PASS —", detail)
	return nil
}
