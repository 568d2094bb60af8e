// Command benchmark is the repository's one benchmark: five workloads,
// both clocks (simulated device seconds and host wall time), and per-layer
// numbers taken from outside the layers. README.md in this directory says
// what each metric means and what each workload is for.
//
// Usage:
//
//	go run ./benchmark [-seed 42] [-seconds 12] [-out dir]   every workload, untraced then traced
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1   one run (what BENCHMARK.json's command does)
//	go run ./benchmark -compare base.json[,base2.json...] new.json[,...]
//
// It claims no gain and changes nothing outside this directory: layers are
// measured by timing calls into their public functions and through the
// public metrics.Sink option.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload in this process and end with the driver's result line")
		seed     = fs.Int64("seed", 42, "every generator seed, weight seed, source list and job order derives from it")
		seconds  = fs.Float64("seconds", defaultSeconds, "length of a timed section")
		trace    = fs.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run and layer replays, per-layer metrics")
		out      = fs.String("out", filepath.Join(".bench_build", "out"), "directory for result.json, trace-<workload>.jsonl and scratch files (keep it outside version control)")
		report   = fs.String("report", "", "with -workload: also write the run's full report to this file")
		quick    = fs.Bool("quick", false, "smoke sizes: 2000 vertices, 2 jobs per workload; the numbers mean nothing")
		compare  = fs.Bool("compare", false, "compare two result files (or two comma-separated lists of them): -compare base.json new.json")
		bounds   = fs.String("bounds", "BENCHMARK.json", "with -compare: the file holding the regression bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files (or two comma-separated lists)")
			return 2
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1), *bounds); err == nil && worse {
			return 1
		}
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace != 0, *quick, *out, *report)
	default:
		err = runAll(*seed, *seconds, *quick, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne measures one workload in this process, prints its metrics by name
// and ends standard output with the driver's result object.
func runOne(name string, seed int64, seconds float64, traced, quick bool, out, reportPath string) error {
	def, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "tmp-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep, err := measure(runConfig{Def: def, Seed: seed, Seconds: seconds, Trace: traced, Quick: quick, OutDir: out, Dir: dir})
	if err != nil {
		return err
	}
	if reportPath != "" {
		if err := writeJSONFile(reportPath, rep); err != nil {
			return err
		}
	}
	newEnvHeader(out, seed, seconds, quick).print(os.Stdout)
	rep.print(os.Stdout)
	line, err := rep.driverLine()
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// runAll runs every workload, untraced then traced, each run in a child
// process of its own so that heap state never leaks from one workload into
// the next, and writes the merged result file.
func runAll(seed int64, seconds float64, quick bool, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	suite := suiteReport{Env: newEnvHeader(out, seed, seconds, quick)}
	suite.Env.print(os.Stdout)
	failed := 0
	for _, def := range workloads {
		res := &workloadResult{Name: def.Name}
		for _, traced := range []int{0, 1} {
			path := filepath.Join(out, fmt.Sprintf("report-%s-%d.json", def.Name, traced))
			args := []string{"-workload", def.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-out", out, "-report", path}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", def.Name, traced, err)
			}
			var rep workloadReport
			if err := readJSONFile(path, &rep); err != nil {
				return err
			}
			rep.print(os.Stdout)
			res.Attempted += rep.Attempted
			res.Failed += rep.Failed
			if rep.Traced {
				res.PerLayer = rep.Metrics
				continue
			}
			res.Jobs, res.TimedSeconds = rep.Jobs, rep.TimedSeconds
			res.Input, res.Exact = rep.Input, rep.Exact
			res.EndToEnd = rep.Metrics
		}
		failed += res.Failed
		suite.Workloads = append(suite.Workloads, res)
	}
	path := filepath.Join(out, "result.json")
	if err := writeJSONFile(path, suite); err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", path)
	if failed > 0 {
		return errors.New("some jobs failed or disagreed with the oracle; see the FAILED lines")
	}
	return nil
}
