//go:build linux

package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestPercentileMedianQuartiles(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := median(ten); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
	if ten[0] != 10 {
		t.Error("median reordered its argument")
	}
	// The cut points Python's statistics.quantiles(data, n=4) gives.
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{ten, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
	} {
		q1, q2, q3 := quartiles(c.data)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{50: 50, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", p, got, want)
		}
	}
	s := summarize([]int64{3000, 1000, 2000})
	if s.p50 != 2 || s.p99 != 3 || s.n != 3 {
		t.Errorf("summarize = %+v, want p50 2us p99 3us n 3", s)
	}
}

// The same seed must give the same inputs, and another seed other ones.
func TestSeedDeterminesInputs(t *testing.T) {
	if !slices.Equal(poissonSchedule(42, 1, 20000, 1000), poissonSchedule(42, 1, 20000, 1000)) {
		t.Error("same seed, different schedule")
	}
	if slices.Equal(poissonSchedule(42, 1, 20000, 1000), poissonSchedule(123, 1, 20000, 1000)) {
		t.Error("different seeds, same schedule")
	}
	if slices.Equal(poissonSchedule(42, 1, 20000, 1000), poissonSchedule(42, 2, 20000, 1000)) {
		t.Error("different trials, same schedule")
	}
	due := poissonSchedule(42, 0, 20000, 20000)
	if !slices.IsSorted(due) {
		t.Error("schedule not in time order")
	}
	if mean := float64(due[len(due)-1]) / float64(len(due)); math.Abs(mean-50e3) > 2e3 {
		t.Errorf("mean gap %.0f ns at 20000/s, want about 50000", mean)
	}
	if !slices.Equal(payloadPool(42), payloadPool(42)) || slices.Equal(payloadPool(42), payloadPool(123)) {
		t.Error("payload pool does not follow the seed")
	}
	if !slices.Equal(rotation(42, 64, 4), rotation(42, 64, 4)) || slices.Equal(rotation(42, 64, 4), rotation(123, 64, 4)) {
		t.Error("handle rotation does not follow the seed")
	}
	pool := payloadPool(42)
	v, w := make([]byte, 64), make([]byte, 64)
	fillValue(v, pool, makeID(3, 77), 12345)
	fillValue(w, pool, makeID(3, 77), 12345)
	if !slices.Equal(v, w) {
		t.Error("same id, different value bytes")
	}
	id, stamp, ok := readValue(v, pool)
	if p, seq := splitID(id); !ok || p != 3 || seq != 77 || stamp != 12345 {
		t.Errorf("readValue = producer %d seq %d stamp %d ok %v", p, seq, stamp, ok)
	}
	v[40] ^= 1
	if _, _, ok := readValue(v, pool); ok {
		t.Error("a corrupted payload was accepted")
	}
}

func TestCheckDeliveryCatchesInjectedFaults(t *testing.T) {
	// Two producers of 100 values each, delivered to two consumers.
	good := func() [][]uint64 {
		logs := make([][]uint64, 2)
		for seq := range uint64(100) {
			logs[seq%2] = append(logs[seq%2], makeID(0, seq), makeID(1, seq))
		}
		return logs
	}
	sent := []uint64{100, 100}
	if v := checkDelivery(sent, good()...); !v.ok() {
		t.Fatalf("clean delivery: %s", v)
	}
	lost := good()
	lost[0] = lost[0][1:]
	if v := checkDelivery(sent, lost...); v != (verdict{lost: 1}) {
		t.Errorf("one value dropped: %s", v)
	}
	dup := good()
	dup[1] = append(dup[1], dup[0][10])
	if v := checkDelivery(sent, dup...); v != (verdict{dup: 1}) {
		t.Errorf("one value delivered twice: %s", v)
	}
	swapped := good()
	swapped[0][4], swapped[0][8] = swapped[0][8], swapped[0][4] // two values of producer 0
	if v := checkDelivery(sent, swapped...); v.reordered == 0 || v.lost+v.dup+v.unknown != 0 {
		t.Errorf("two values of one producer swapped: %s", v)
	}
	stray := good()
	stray[0] = append(stray[0], makeID(0, 100), makeID(7, 0), ^uint64(0))
	if v := checkDelivery(sent, stray...); v != (verdict{unknown: 3}) {
		t.Errorf("three values nobody sent: %s", v)
	}
}

// TestSmoke pushes a few operations through every workload, untraced and
// traced, and checks that every metric BENCHMARK.json names comes out.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	perLayer := map[string]bool{}
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{root: root, workload: w.Name, seed: 123, duration: 200 * time.Millisecond, traced: traced, sz: smokeSizes}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.verdict.ok() || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, %s", w.Name, traced, rep.attempted, rep.failed, rep.verdict)
			}
			if !traced {
				for _, m := range s.EndToEnd {
					if v, ok := rep.metric(m.Name); !ok || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
						t.Errorf("%s: %s = %v (reported %v), want a positive finite number", w.Name, m.Name, v, ok)
					}
				}
				continue
			}
			for _, m := range s.PerLayer {
				if v, ok := rep.metric(m.Name); ok {
					perLayer[m.Name] = true
					if math.IsInf(v, 0) || math.IsNaN(v) {
						t.Errorf("%s: %s = %v", w.Name, m.Name, v)
					}
				}
			}
			for name := range rep.values {
				if !slices.ContainsFunc(s.PerLayer, func(m metricSpec) bool { return m.Name == name }) {
					t.Errorf("%s reports %s, which BENCHMARK.json does not name", w.Name, name)
				}
			}
		}
	}
	for _, m := range s.PerLayer {
		if !perLayer[m.Name] {
			t.Errorf("no workload's traced run reports %s", m.Name)
		}
	}
}
