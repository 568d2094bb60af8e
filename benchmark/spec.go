package main

// This file is the benchmark's vocabulary: every workload and every metric
// it can print, with unit, direction and (for end-to-end metrics) the
// regression bound. BENCHMARK.json at the repository root repeats the names
// for the driver; TestBenchmarkJSONMatchesSpec keeps the two in step.

// metricDef names one metric. Bound is the relative worsening that counts
// as a regression and is set for end-to-end metrics only. The comment beside
// each entry is its definition in short; README.md has it in full.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of the system sees, in print order. A bound is
// about three times the widest spread any workload showed for the metric on
// the 2-core growth host, capped at the contract's 0.25 (spread: distance
// between the first and third quartile of ten runs, each with another seed,
// over their median; README.md has the table). The issue's starting values
// (0.01 to 0.10) assumed one seed: across seeds the input differs, and on
// this host wall time alone drifts by 5 % between runs of one seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},             // median of three set-ups: generate + SaveBinaryFile/LoadAuto round trip + partition (+ serve.New) + one warm-up job; oracle time excluded
	{"job_ms_p50", "ms", "lower", 0.20},         // median host wall of one job, fresh app to result (POST /jobs to terminal state on serve-mix)
	{"job_ms_tail", "ms", "lower", 0.25},        // highest percentile with at least ten samples beyond it; the median below twenty samples
	{"jobs_per_s", "1/s", "higher", 0.25},       // completed jobs over the wall time of the timed section (closed loop)
	{"sim_ms_mean", "ms", "lower", 0.25},        // mean simulated device time of the first MinJobs executed jobs: the paper's clock
	{"sim_speedup_vs_omp", "x", "higher", 0.18}, // ompbase simulated time on machine.CPU() for the same jobs over sim_ms_mean: the paper's Fig. 5 ratio
	{"wall_over_omp", "x", "lower", 0.25},       // job_ms_p50 over the median wall of at least eleven ompbase runs in the same process
	{"alloc_mb_per_job", "MB", "lower", 0.20},   // runtime.MemStats.TotalAlloc over the timed section, per job
	{"allocs_per_job", "count", "lower", 0.15},  // runtime.MemStats.Mallocs over the timed section, per job
	{"peak_rss_mb", "MB", "lower", 0.25},        // VmHWM of the workload's own process at its end
}

// perLayer lists the single-layer metrics of a traced run, named
// <module>.<metric>. A workload that never enters a layer reports 0 for it
// in the driver's result line and leaves it out of the report file.
var perLayer = []metricDef{
	{"core.generate_ms", "ms", "lower", 0},                 // generate phase wall per job: per superstep the slowest rank, summed
	{"core.process_ms", "ms", "lower", 0},                  // process phase wall per job, same rule
	{"core.update_ms", "ms", "lower", 0},                   // update phase wall per job, same rule
	{"core.exchange_ms", "ms", "lower", 0},                 // exchange phase wall per job (includes the lockstep wait), same rule
	{"core.construct_ms", "ms", "lower", 0},                // job span self time: device construction + Init + result, everything outside the supersteps
	{"core.lockstep_idle_frac", "ratio", "lower", 0},       // exchange wall summed over ranks / all-phase wall summed over ranks
	{"core.supersteps", "count", "lower", 0},               // supersteps per job (exact)
	{"core.messages", "count", "lower", 0},                 // Counters.Messages per job, summed over ranks (exact)
	{"core.remote_messages", "count", "lower", 0},          // Counters.RemoteMessages per job (exact)
	{"core.edges_traversed", "count", "lower", 0},          // Counters.EdgesTraversed per job (exact)
	{"core.columns_used", "count", "lower", 0},             // Counters.ColumnsUsed per job (exact)
	{"core.queue_ops", "count", "lower", 0},                // Counters.QueueOps + QueueBatchOps per job (exact)
	{"core.task_fetches", "count", "lower", 0},             // Counters.TaskFetches per job (exact)
	{"core.pull_supersteps", "count", "higher", 0},         // Counters.PullSupersteps per job (exact)
	{"core.pull_edges_scanned", "count", "lower", 0},       // Counters.PullEdgesScanned per job (exact)
	{"core.vec_rows_min", "count", "lower", 0},             // least Counters.VecRows of any job; schedule-dependent, never gate on equality
	{"core.vec_rows_max", "count", "lower", 0},             // greatest Counters.VecRows of any job
	{"core.medges_per_s", "1e6/s", "higher", 0},            // edges traversed per job over the median job wall
	{"machine.sim_generate_ms", "ms", "lower", 0},          // simulated generate time per job, slowest rank
	{"machine.sim_process_ms", "ms", "lower", 0},           // simulated process time per job, slowest rank
	{"machine.sim_update_ms", "ms", "lower", 0},            // simulated update time per job, slowest rank
	{"machine.sim_exchange_ms", "ms", "lower", 0},          // simulated interconnect time per job (HeteroResult.CommSeconds)
	{"gen.generate_ms", "ms", "lower", 0},                  // gen.PowerLaw / gen.Community (+ gen.WithWeights)
	{"graph.load_ms", "ms", "lower", 0},                    // graph.LoadAuto of the binary file written in set-up
	{"partition.assign_ms", "ms", "lower", 0},              // partition.Hybrid / partition.MakeN
	{"metis.partition_ms", "ms", "lower", 0},               // metis.Partition(g, partition.BlocksFor(n), DefaultOptions())
	{"metis.alloc_mb", "MB", "lower", 0},                   // bytes allocated by that call
	{"partition.cross_edge_frac", "ratio", "lower", 0},     // partition.CrossEdges / edges
	{"graph.transpose_ms", "ms", "lower", 0},               // CSR.Transpose, once per direction-optimizing rank
	{"csb.build_ms", "ms", "lower", 0},                     // csb.Build (csb.NewGenericBuffer for structured messages) at each rank's width, summed over ranks
	{"pipeline.new_ms", "ms", "lower", 0},                  // pipeline.NewPipelined(workers, movers, 1), summed over pipelined ranks
	{"pipeline.new_alloc_mb", "MB", "lower", 0},            // bytes allocated by those calls
	{"csb.insert_ns_per_msg", "ns", "lower", 0},            // edge stream through pipeline.RunLocking into Buffer.Insert at the locking rank's thread count
	{"csb.insert_owned_ns_per_msg", "ns", "lower", 0},      // edge stream through Buffer.InsertOwnedBatch, one goroutine per mover class
	{"csb.reset_ms", "ms", "lower", 0},                     // Buffer.Reset after the stream
	{"csb.footprint_mb", "MB", "lower", 0},                 // Buffer.FootprintBytes summed over ranks
	{"csb.occupancy", "ratio", "higher", 0},                // occupied cells / (rows x width) after the stream
	{"queue.handoff_ns_per_msg", "ns", "lower", 0},         // two goroutines over one queue.SPSC, Push / TryPop
	{"queue.handoff_batch_ns_per_msg", "ns", "lower", 0},   // the same with PushBatch / PopBatch at 64
	{"queue.empty_poll_ns", "ns", "lower", 0},              // PopBatch on an empty ring
	{"pipeline.run_ns_per_msg", "ns", "lower", 0},          // Pipelined.Run over the edge stream into a discarding sink
	{"vec.reduce_sum_ns_per_row", "ns", "lower", 0},        // ArrayF32.ReduceSum over the filled buffer's tasks
	{"vec.reduce_min_ns_per_row", "ns", "lower", 0},        // ArrayF32.ReduceMin over the filled buffer's tasks
	{"vec.sortlane_ns_per_msg", "ns", "lower", 0},          // ArrayF32.SortLane over every occupied lane of the filled buffer
	{"sched.next_ns", "ns", "lower", 0},                    // Scheduler.Next under Dev.Threads() goroutines, wall per fetch
	{"frontier.fill_ns_per_vertex", "ns", "lower", 0},      // Bitmap.FillFrom + Count over all vertices
	{"comm.combine_ns_per_msg", "ns", "lower", 0},          // Combiner.Add + DrainRouted over the cross-rank edge stream
	{"comm.sorting_combine_ns_per_msg", "ns", "lower", 0},  // SortingCombiner.Add + DrainRouted over the same stream
	{"comm.exchange_us_per_round", "us", "lower", 0},       // one Endpoint.ExchangeAll round on a NewGroupNet, empty payload
	{"comm.exchange_ns_per_msg", "ns", "lower", 0},         // the same round carrying the combined cross-rank payload, per message
	{"comm.bytes_per_job", "count", "lower", 0},            // Counters.BytesSent per job (exact)
	{"comm.rounds_per_job", "count", "lower", 0},           // Counters.Exchanges per job (exact)
	{"comm.retransmits", "count", "lower", 0},              // HeteroResult.Integrity.Retransmits; must be 0
	{"checkpoint.encode_ms", "ms", "lower", 0},             // Snapshot.Encode at the workload's state size
	{"checkpoint.commit_ms_p50", "ms", "lower", 0},         // Store.Commit of that snapshot (fsync + rename) in the -out filesystem
	{"checkpoint.journal_append_us_p50", "us", "lower", 0}, // Journal.Append of one job record (fsync)
	{"checkpoint.capture_ms", "ms", "lower", 0},            // mean wall of the engine's checkpoint events (capture + commit)
	{"serve.submit_ms_p50", "ms", "lower", 0},              // POST /jobs round trip
	{"serve.queue_wait_ms_p50", "ms", "lower", 0},          // job-admitted to job-started
	{"serve.execute_ms_p50", "ms", "lower", 0},             // job-started to job-completed
	{"serve.cached_ms_p50", "ms", "lower", 0},              // client latency of a result-cache hit
	{"serve.bfs_ms_p50", "ms", "lower", 0},                 // client latency of the BFS class
	{"serve.sssp_ms_p50", "ms", "lower", 0},                // client latency of the SSSP class
	{"serve.cache_hit_frac", "ratio", "higher", 0},         // jobs answered with cached:true / jobs
	{"serve.retries", "count", "lower", 0},                 // attempts beyond the first; must be 0
	{"serve.shed", "count", "lower", 0},                    // Server.Shed; must be 0
	{"serve.state_dir_mb", "MB", "lower", 0},               // size of StateDir after the last job
	{"serve.heap_after_mb", "MB", "lower", 0},              // live heap after the last job and a GC
	{"ompbase.job_ms_p50", "ms", "lower", 0},               // median wall of the ompbase runs: denominator of wall_over_omp
	{"ompbase.sim_ms", "ms", "lower", 0},                   // ompbase simulated time on machine.CPU(): numerator of sim_speedup_vs_omp
	{"seqref.job_ms", "ms", "lower", 0},                    // the plain single-threaded seqref run of the same problem
	{"metrics.sink_overhead_frac", "ratio", "lower", 0},    // traced job_ms_p50 / untraced job_ms_p50 - 1
}

// exactCounts are the per-layer counts that depend only on the inputs: a
// host-only change must leave them identical, and -compare reports a
// difference as "workload changed" instead of as a performance delta.
var exactCounts = []string{
	"core.supersteps", "core.messages", "core.remote_messages", "core.edges_traversed",
	"core.columns_used", "core.queue_ops", "core.task_fetches", "core.pull_supersteps",
	"core.pull_edges_scanned", "comm.bytes_per_job", "comm.rounds_per_job",
}

// workloadDef names one workload. MinJobs is the floor on timed jobs and
// the fixed prefix over which simulated time and exact counts are taken, so
// both stay the same however many more jobs a faster build fits into the
// run.
type workloadDef struct {
	Name    string
	Why     string
	MinJobs int
}

var workloads = []workloadDef{
	{"pagerank-cpu-mic", "dense, every vertex active: pipelined handoff, sorted-lane folds, sorting combiner and exchange are live; frontier, pull and checkpoint are idle", 4},
	{"sssp-cpu-lock", "locking scheme on one CPU: csb.Buffer.Insert dominates; queue, pipeline, comm and checkpoint are bypassed, so work on them must show no change here", 32},
	{"bfs-auto-4rank", "few messages over 4 ranks: per-job construction and per-superstep fixed costs dominate, bitmap frontiers and the pull sweep are live; message-path speed-ups must show no change here", 32},
	{"semicluster-cpu-mic", "the only workload on the generic engine (structured messages, csb.GenericBuffer): where a merged superstep driver proves it is no slower", 4},
	{"serve-mix", "many short concurrent jobs through the daemon over HTTP, 2 clients closed loop: adds per-job construction, checkpoint fsync per superstep, journal fsync per transition and the result cache", 24},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
