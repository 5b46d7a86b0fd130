//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// aaPair is one (metric, workload) pair of an A/A report.
type aaPair struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (q3-q1)/median
	Verdict  string    `json:"verdict"`
	Values   []float64 `json:"values"`
}

// aaReport is bench/out/AA.json.
type aaReport struct {
	Sets       int      `json:"sets"`
	Seeds      []int64  `json:"seeds"`
	RunSeconds float64  `json:"run_seconds"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	LoadAvg1   float64  `json:"load_avg_1m_at_start"`
	Elapsed    string   `json:"elapsed"`
	Pairs      []aaPair `json:"pairs"`
}

// runAA runs the untraced suite sets times on the same code, each set
// with its own seed and each run in its own process — as the driver does —
// and reports every metric's spread, the distance between its quartiles
// as a share of its median, against the metric's bound. A pair whose
// spread exceeds its bound cannot gate a change: the command fails and
// names it, and the metric is to be demoted to a per-layer one. setup_s
// is reported but not judged, as the driver does not judge it either.
func runAA(root string, s *spec, sets int, seed int64, seconds float64) error {
	if sets < 2 {
		return fmt.Errorf("-aa %d: a spread needs at least 2 sets", sets)
	}
	start := time.Now()
	load, _ := loadAvg1() // reported only; the manifest of each run warns when it is high
	rep := aaReport{Sets: sets, RunSeconds: seconds, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), LoadAvg1: load}
	values := map[[2]string][]float64{} // (workload, metric) -> one value per set
	for i := range sets {
		rep.Seeds = append(rep.Seeds, seed+int64(i))
		for _, w := range s.Workloads {
			args := selfArgs(w.Name, seed+int64(i), seconds, false)
			cmd := exec.Command(args[0], args[1:]...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", i, w.Name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("set %d, %s: result line: %w", i, w.Name, err)
			}
			for name, m := range res.Metrics {
				values[[2]string{w.Name, name}] = append(values[[2]string{w.Name, name}], m.Value)
			}
			fmt.Fprintf(os.Stderr, "# aa: set %d/%d %s done (%s elapsed)\n", i+1, sets, w.Name, time.Since(start).Round(time.Second))
		}
	}
	var exceeded []string
	fmt.Printf("%-22s %-16s %14s %14s %14s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range s.Workloads {
		for _, m := range s.EndToEnd {
			v := values[[2]string{w.Name, m.Name}]
			q1, _, q3 := quartiles(v)
			p := aaPair{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, Median: median(v), Q1: q1, Q3: q3, Values: v}
			p.Spread = (q3 - q1) / p.Median
			switch {
			case m.Name == "setup_s":
				p.Verdict = "not judged"
			case p.Spread > m.Bound:
				p.Verdict = "EXCEEDS its bound: demote"
				exceeded = append(exceeded, w.Name+"/"+m.Name)
			case p.Spread > m.Bound/3:
				p.Verdict = "ok, but above a third of its bound"
			default:
				p.Verdict = "ok"
			}
			rep.Pairs = append(rep.Pairs, p)
			fmt.Printf("%-22s %-16s %14.4f %14.4f %14.4f %7.2f%% %5.0f%%  %s\n",
				p.Workload, p.Metric, p.Q1, p.Median, p.Q3, 100*p.Spread, 100*p.Bound, p.Verdict)
		}
	}
	rep.Elapsed = time.Since(start).Round(time.Second).String()
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, "bench", "out", "AA.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("written to", path)
	if len(exceeded) > 0 {
		return fmt.Errorf("%d gating pairs spread wider than their bound: %v", len(exceeded), exceeded)
	}
	return nil
}
