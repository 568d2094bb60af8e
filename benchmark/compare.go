package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json that -compare needs.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges one end-to-end metric: worsening is the relative change in
// the bad direction. A spread wider than the bound means the runs cannot
// resolve a change of the size the bound guards against.
func verdict(base, new float64, better string, bound, spread float64) string {
	if base == 0 {
		return verdictUnresolved
	}
	worsening := new/base - 1
	if better == "higher" {
		worsening = 1 - new/base
	}
	switch {
	case spread > bound:
		return verdictUnresolved
	case worsening > bound:
		return verdictWorse
	case worsening < -bound:
		return verdictBetter
	}
	return verdictSame
}

func loadSuites(list string) ([]suiteReport, error) {
	var out []suiteReport
	for _, path := range strings.Split(list, ",") {
		var s suiteReport
		if err := readJSONFile(path, &s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (s suiteReport) workload(name string) *workloadResult {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// side is one workload across the result files of one side of a comparison.
type side []*workloadResult

func collect(suites []suiteReport, name string) side {
	var out side
	for _, s := range suites {
		if w := s.workload(name); w != nil {
			out = append(out, w)
		}
	}
	return out
}

// values returns the metric across the side's files; ok is false when a
// file lacks it (the workload never enters that layer).
func (s side) values(name string, layer bool) (xs []float64, ok bool) {
	for _, w := range s {
		m := w.EndToEnd
		if layer {
			m = w.PerLayer
		}
		v, present := m[name]
		if !present {
			return nil, false
		}
		xs = append(xs, v.Value)
	}
	return xs, len(xs) > 0
}

func (s side) failedFrac() float64 {
	var failed, attempted int
	for _, w := range s {
		failed += w.Failed
		attempted += w.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// changed says how two runs of one workload differ in what they ran on, or
// "" when inputs and exact counts agree.
func changed(a, b *workloadResult) string {
	if a.Input != b.Input {
		return fmt.Sprintf("input %+v became %+v", a.Input, b.Input)
	}
	for _, name := range exactCounts {
		x, y := a.Exact[name], b.Exact[name]
		if x != y && math.Abs(x-y) > 1e-5*math.Max(math.Abs(x), math.Abs(y)) {
			return fmt.Sprintf("%s %v became %v", name, x, y)
		}
	}
	return ""
}

// compareFiles prints one row per (metric, workload) of two sets of result
// files and reports whether anything got worse: a metric beyond its bound,
// a rise in failed_frac, or a workload that no longer runs on the same
// inputs with the same exact counts (which makes its rows incomparable).
// With one file per side the run-to-run spread is unknown and no row reads
// unresolved; give several files per side to have spreads judged.
func compareFiles(w io.Writer, baseList, newList, boundsPath string) (worse bool, err error) {
	var bj benchmarkJSON
	if err := readJSONFile(boundsPath, &bj); err != nil {
		return false, fmt.Errorf("reading the bounds: %w", err)
	}
	bases, err := loadSuites(baseList)
	if err != nil {
		return false, err
	}
	news, err := loadSuites(newList)
	if err != nil {
		return false, err
	}
	fmt.Fprint(w, "base: ")
	bases[0].Env.print(w)
	fmt.Fprint(w, "new:  ")
	news[0].Env.print(w)
	fmt.Fprintf(w, "%d base and %d new result files; bounds from %s\n", len(bases), len(news), boundsPath)
	fmt.Fprintf(w, "%-20s %-34s %14s %14s %8s %8s  %s\n", "workload", "metric", "base", "new", "ratio", "spread", "verdict")
	for _, def := range workloads {
		a, b := collect(bases, def.Name), collect(news, def.Name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, x := range append(append(side{}, a[1:]...), b...) {
			if diff := changed(a[0], x); diff != "" {
				fmt.Fprintf(w, "%-20s workload changed: %s\n", def.Name, diff)
				worse = true
				break
			}
		}
		fa, fb := a.failedFrac(), b.failedFrac()
		v := verdictSame
		if fb > fa {
			v, worse = verdictWorse, true
		}
		fmt.Fprintf(w, "%-20s %-34s %14.6g %14.6g %8s %8s  %s\n", def.Name, "failed_frac", fa, fb, "", "", v)
		row := func(m benchmarkMetric, layer bool) {
			xa, oka := a.values(m.Name, layer)
			xb, okb := b.values(m.Name, layer)
			if !oka || !okb {
				return
			}
			ma, mb := median(xa), median(xb)
			spread := math.Max(quartileSpread(xa), quartileSpread(xb))
			v := ""
			if !layer {
				if v = verdict(ma, mb, m.Better, m.Bound, spread); v == verdictWorse {
					worse = true
				}
			}
			ratio := math.NaN()
			if ma != 0 {
				ratio = mb / ma
			}
			fmt.Fprintf(w, "%-20s %-34s %14.6g %14.6g %8.3f %8.3f  %s\n", def.Name, m.Name, ma, mb, ratio, spread, v)
		}
		for _, m := range bj.EndToEnd {
			row(m, false)
		}
		for _, m := range bj.PerLayer {
			row(m, true)
		}
	}
	return worse, nil
}
