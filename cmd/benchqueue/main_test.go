package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/shard"
)

func tinyConfig(ps []int, ops, procs int) runConfig {
	return runConfig{ps: ps, ops: ops, procs: procs, shards: 2, backend: shard.BackendCore}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseInts = (%v, %v)", got, err)
	}
	for _, bad := range []string{"", "x", "1,,2", "0", "-3", "1,0"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) succeeded", bad)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", tinyConfig([]int{2}, 10, 2)); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunSingleExperimentTiny(t *testing.T) {
	// Smoke: drives the real experiment path with tiny parameters.
	if err := run("enqsteps", tinyConfig([]int{2, 4}, 50, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllExperimentNamesTiny(t *testing.T) {
	// Each named experiment must execute end to end with tiny parameters.
	for _, name := range []string{"casbound", "deqsteps", "retry", "adversary",
		"boundedsteps", "throughput", "waitfree", "sharded"} {
		if err := run(name, tinyConfig([]int{2}, 30, 2)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestJSONEmission(t *testing.T) {
	// A nested, not-yet-existing output directory must be created, not
	// reported as an error.
	dir := filepath.Join(t.TempDir(), "nested", "bench_out")
	cfg := tinyConfig([]int{2}, 30, 2)
	cfg.jsonDir = dir
	if err := run("sharded", cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_T10.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("BENCH_T10.json not written: %v", err)
	}
	var got harness.TableJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if got.ID != "T10" || len(got.Columns) == 0 || len(got.Rows) == 0 {
		t.Errorf("unexpected table: id=%q cols=%d rows=%d", got.ID, len(got.Columns), len(got.Rows))
	}
}

func TestRunSeededEmitsVarianceAndManifest(t *testing.T) {
	// The acceptance path: -exp sharded -seeds 3 -json out must emit
	// mean/stddev/cv columns plus a run manifest.
	dir := t.TempDir()
	cfg := tinyConfig([]int{2}, 30, 2)
	cfg.seeds = 3
	cfg.jsonDir = dir
	if err := run("sharded", cfg); err != nil {
		t.Fatal(err)
	}
	got, err := harness.ReadTableJSON(filepath.Join(dir, "BENCH_T10.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Variance == nil || len(got.Variance) != len(got.Rows) {
		t.Fatalf("variance block missing or misaligned: %d rows, %d variance", len(got.Rows), len(got.Variance))
	}
	var sawAgg bool
	for _, row := range got.Variance {
		for _, a := range row {
			if a != nil {
				sawAgg = true
				if a.N != 3 {
					t.Errorf("agg N = %d, want 3", a.N)
				}
			}
		}
	}
	if !sawAgg {
		t.Error("no numeric cell got a variance aggregate")
	}
	m := got.Manifest
	if m == nil {
		t.Fatal("no manifest")
	}
	if len(m.Seeds) != 3 || m.Seeds[0] != 42 || m.Seeds[1] != 123 || m.Seeds[2] != 456 {
		t.Errorf("seeds = %v, want default 42/123/456", m.Seeds)
	}
	if m.GoVersion == "" || m.NumCPU < 1 {
		t.Errorf("manifest env incomplete: %+v", m)
	}
	if m.Params["exp"] != "sharded" {
		t.Errorf("manifest params = %v", m.Params)
	}
	// The raw JSON must spell out the schema keys the tooling greps for.
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_T10.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"mean"`, `"stddev"`, `"cv"`, `"manifest"`, `"seeds"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("BENCH_T10.json lacks %s", key)
		}
	}
}

// TestCompareModeExitSemantics demonstrates the regression gate end to end:
// compare exits 0 (nil error) against a just-emitted baseline and exits 1
// (ErrRegression) when a baseline metric is artificially degraded beyond
// its tolerance band.
func TestCompareModeExitSemantics(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig([]int{2}, 40, 2)
	cfg.seeds = 2
	cfg.jsonDir = dir
	if err := run("batch", cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_T12.json")

	// Pass: fresh run against its own baseline, wide band to keep the
	// pass leg robust on a loaded test machine; portable skips wall-clock
	// columns. What is under test is the exit semantics, not the band.
	gate := runConfig{tolerance: 0.75, portable: true, jsonDir: dir}
	if err := runCompare(path, gate); err != nil {
		t.Fatalf("compare against own baseline: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "COMPARE_T12.json")); err != nil {
		t.Errorf("compare artifact not written: %v", err)
	}

	// Fail: degrade the committed blocks/op baseline 10x; the re-run's
	// honest value now sits far outside any band.
	baseline, err := harness.ReadTableJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, c := range baseline.Columns {
		if c == "blocks/op" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no blocks/op column in %v", baseline.Columns)
	}
	for r := range baseline.Variance {
		if a := baseline.Variance[r][col]; a != nil {
			a.Mean *= 10
			a.Min *= 10
			a.Max *= 10
		}
	}
	data, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = runCompare(path, gate)
	if !errors.Is(err, harness.ErrRegression) {
		t.Fatalf("degraded baseline: err = %v, want ErrRegression", err)
	}
}

func TestCompareRejectsLegacyBaseline(t *testing.T) {
	// A pre-variance single-run table must be rejected with guidance, not
	// silently compared without bands.
	dir := t.TempDir()
	legacy := &harness.Table{ID: "T12", Columns: []string{"m"}, Rows: [][]string{{"1"}}}
	path, err := harness.WriteTableJSON(dir, legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := runCompare(path, runConfig{tolerance: 0.15}); err == nil {
		t.Error("legacy baseline without manifest accepted")
	}
}

// TestConservationViolations checks the exit-1 rule's table scan: a clean
// table passes, and every nonzero or unparsable lost/dup cell is reported,
// while other columns never are.
func TestConservationViolations(t *testing.T) {
	clean := &harness.Table{ID: "T12", Columns: []string{"m", "Mops/s", "lost", "dup"},
		Rows: [][]string{{"1", "3.50", "0", "0"}, {"4", "0.00", "0", "0"}}}
	if v := conservationViolations(clean); len(v) != 0 {
		t.Errorf("clean table reported %v", v)
	}
	bad := &harness.Table{ID: "T13", Columns: []string{"tenants", "busy", "lost", "dup"},
		Rows: [][]string{{"1", "7", "0", "0"}, {"2", "0", "0", "1"}, {"4", "0", "0.33", "?"}}}
	got := conservationViolations(bad)
	want := []string{"T13 row 3 lost=0.33", "T13 row 2 dup=1", "T13 row 3 dup=?"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("violations = %q, want %q", got, want)
	}
}
