package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// metricValue is one measured number. N is the count of samples behind it
// and Note what else is needed to read it (the percentile a tail turned out
// to be, the ranks a sum covers).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// inputFingerprint identifies what a workload ran on, so that drift in gen
// or partition cannot pass as a speed-up.
type inputFingerprint struct {
	Vertices   int    `json:"vertices"`
	Edges      int64  `json:"edges"`
	GraphFNV   string `json:"graph_fnv"`
	CrossEdges int64  `json:"cross_edges"`
}

// workloadReport is the outcome of one run of one workload: either the
// untraced run (end-to-end metrics) or the traced run (per-layer metrics).
type workloadReport struct {
	Workload     string                 `json:"workload"`
	Traced       bool                   `json:"traced"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Failures     []string               `json:"failures,omitempty"`
	Jobs         int                    `json:"jobs"`
	TimedSeconds float64                `json:"timed_seconds"`
	Input        inputFingerprint       `json:"input"`
	Exact        map[string]float64     `json:"exact"`
	Metrics      map[string]metricValue `json:"metrics"`
}

func (r *workloadReport) set(name string, value float64, n int, note string) {
	r.Metrics[name] = metricValue{Value: value, Unit: unitOf(name), N: n, Note: note}
}

func (r *workloadReport) fail(err error) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, err.Error())
	}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// driverLine is the contract's result object: exactly these keys, every
// metric of the run's kind present. A layer the workload never enters
// reads 0.
func (r *workloadReport) driverLine() ([]byte, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{r.Metrics[d.Name].Value, d.Unit}
	}
	return json.Marshal(out)
}

// print writes every metric the run measured by name, with unit and sample
// count.
func (r *workloadReport) print(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s): %d jobs in %.2f s timed; attempted %d, failed %d, failed_frac %.4f\n",
		r.Workload, kind, r.Jobs, r.TimedSeconds, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	fmt.Fprintf(w, "   input: n=%d m=%d fnv=%s cross_edges=%d\n", r.Input.Vertices, r.Input.Edges, r.Input.GraphFNV, r.Input.CrossEdges)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		note := ""
		if m.Note != "" {
			note = " (" + m.Note + ")"
		}
		fmt.Fprintf(w, "   %-34s %14.6g %-6s n=%d%s\n", d.Name, m.Value, m.Unit, m.N, note)
	}
	if r.Traced {
		var absent []string
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.Name]; !ok {
				absent = append(absent, d.Name)
			}
		}
		fmt.Fprintf(w, "   bypassed: %s\n", strings.Join(absent, " "))
	}
}

// suiteReport is the result file of one full run: what -compare reads.
type suiteReport struct {
	Env       envHeader         `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

// workloadResult merges a workload's untraced and traced run.
type workloadResult struct {
	Name         string                 `json:"name"`
	Jobs         int                    `json:"jobs"`
	TimedSeconds float64                `json:"timed_seconds"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Input        inputFingerprint       `json:"input"`
	Exact        map[string]float64     `json:"exact"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer"`
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func (e envHeader) print(w io.Writer) {
	fmt.Fprintf(w, "hetgraph benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, -out on %s, seed %d, %.0f s per timed section",
		e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.OutFS, e.Seed, e.Seconds)
	if e.Quick {
		fmt.Fprint(w, ", QUICK (smoke sizes, numbers mean nothing)")
	}
	fmt.Fprintln(w)
}
