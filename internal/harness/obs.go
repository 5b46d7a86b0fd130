package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
)

// ObsConfig shapes the T15 observability-overhead experiment.
type ObsConfig struct {
	Shards  int // fabric shard count (default 4)
	Backend shard.Backend

	// Repeats is how many times each (rate, obs on/off) cell is measured.
	// The two arms are interleaved with alternating order and the reported
	// overhead is the median of per-repeat pairwise deltas, so machine
	// drift between repeats cancels instead of landing in the comparison.
	// Default 7.
	Repeats int

	// Load is the per-run shape; Rate is overridden per phase.
	Load server.LoadConfig
}

// ExpObsOverhead (T15): the cost of the observability layer. Each phase
// drives the same open-loop load against a server with observability off
// and against an identical server with it on (per-op latency histograms
// recorded on every frame, the control-plane trace ring armed), repeated
// and interleaved.
//
// The primary overhead instrument is CPU time per operation, not
// saturated throughput: on shared hardware the saturated capacity of the
// service swings far more between runs (A/A pairs differ by ±7% and
// worse) than the effect being measured, while CPU-per-op at a fixed
// achievable rate compares identical work and is stable to ~1%. Both
// arms serve the same offered rate; the histograms' atomic bucket
// updates, the frame timestamps, and the trace ring show up as extra CPU
// per op. The design budget is under 3%. The throughput columns document
// that the paced rates were actually served by both arms; the server-side
// percentile columns show the payoff — the latency view only the obs-on
// server can report.
func ExpObsOverhead(rates []int, cfg ObsConfig) (*Table, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("harness: no rates")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Backend == "" {
		cfg.Backend = shard.BackendCore
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 7
	}
	if cfg.Load.Duration <= 0 {
		cfg.Load.Duration = 2 * time.Second
	}

	t := &Table{
		ID: "T15",
		Title: fmt.Sprintf("Observability overhead: obs-on vs obs-off servers (%d shards, %s, %s per run, median of %d)",
			cfg.Shards, cfg.Backend, cfg.Load.Duration, cfg.Repeats),
		Columns: []string{"rate/s", "off achieved/s", "on achieved/s",
			"off cpu us/op", "on cpu us/op", "cpu overhead %",
			"client p50 ms", "client p99 ms", "server p50 ms", "server p99 ms", "lost", "dup"},
		Notes: []string{
			"cpu us/op is process CPU time (user+sys) over the run divided by request frames served (enqueues, dequeues including empty polls, batches); server and load generator share the process in both arms, so the pairwise delta isolates the observability layer.",
			"cpu overhead % is the median of per-repeat pairwise deltas (on - off) / off; the design budget is < 3%.",
			"the overhead instrument is CPU per op at a fixed achievable rate, not saturated throughput: saturated capacity on shared hardware drifts more between runs (A/A pairs differ by ±7% and worse) than the effect under measurement.",
			"achieved columns are medians of repeated runs, off/on interleaved with alternating order; both arms must serve the offered rate for the CPU comparison to be like for like.",
			"client percentiles are the obs-on runs' enqueue ack latency measured by the open-loop generator (scheduled send to ack).",
			"server percentiles are the same runs' enqueue latency measured by the server itself (frame read to reply), from the histograms the overhead pays for; the gap between the two views is client-side scheduling plus network round trip.",
			"GC is paused during each measured run (collection cycles landing inside one 2s window and not another would be noise; recording is allocation-free so GC load is identical in both arms).",
			"conservation (lost = dup = 0) is checked on the obs-on arm.",
		},
	}

	// run measures one (rate, obs) cell once: the load result, the CPU
	// microseconds the process spent per request frame served, and — for
	// the obs-on arm — the server's own view of its latency. The
	// denominator is the server's request counter, not acked ops: the
	// consumers poll, so empty dequeues are real served frames that pay
	// the per-frame observability cost and must be priced in.
	run := func(rate int, obsOn bool) (*server.LoadResult, float64, *server.ObsStats, error) {
		q, err := shard.New[[]byte](cfg.Shards, shard.WithBackend(cfg.Backend))
		if err != nil {
			return nil, 0, nil, err
		}
		srv, err := server.Serve("127.0.0.1:0", q, server.WithObservability(obsOn))
		if err != nil {
			return nil, 0, nil, err
		}
		defer srv.Close()
		load := cfg.Load
		load.Rate = rate
		// Histogram recording and the trace ring are allocation-free, so
		// both arms generate identical GC load; whether a collection cycle
		// happens to land inside a 2s run is pure noise in the CPU
		// comparison. Collect beforehand and pause GC for the measured
		// interval (a run allocates tens of MB — safely resident).
		runtime.GC()
		gcPct := debug.SetGCPercent(-1)
		cpu0 := cpuSeconds()
		res, err := server.RunLoad(srv.Addr().String(), load)
		cpu := cpuSeconds() - cpu0
		debug.SetGCPercent(gcPct)
		if err != nil {
			return nil, 0, nil, err
		}
		snap := srv.Snapshot()
		cpuPerOpUs := 0.0
		if snap.Server.Requests > 0 {
			cpuPerOpUs = cpu / float64(snap.Server.Requests) * 1e6
		}
		return res, cpuPerOpUs, snap.Obs, nil
	}

	for _, rate := range rates {
		var offRates, onRates, offCPUs, onCPUs, overheads []float64
		var best *server.LoadResult
		var bestObs *server.ObsStats
		for r := 0; r < cfg.Repeats; r++ {
			// Alternate which arm runs first so warmup and slow drift debit
			// both arms evenly across the repeats.
			var offRes, onRes *server.LoadResult
			var offCPU, onCPU float64
			var onObs *server.ObsStats
			var err error
			if r%2 == 0 {
				offRes, offCPU, _, err = run(rate, false)
				if err == nil {
					onRes, onCPU, onObs, err = run(rate, true)
				}
			} else {
				onRes, onCPU, onObs, err = run(rate, true)
				if err == nil {
					offRes, offCPU, _, err = run(rate, false)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("rate %d repeat %d: %w", rate, r, err)
			}
			offRates = append(offRates, offRes.AchievedRate())
			onRates = append(onRates, onRes.AchievedRate())
			offCPUs = append(offCPUs, offCPU)
			onCPUs = append(onCPUs, onCPU)
			if offCPU > 0 {
				overheads = append(overheads, (onCPU-offCPU)/offCPU*100)
			}
			// Keep the obs-on run nearest the arm's running median as the
			// cell's representative for latency and conservation columns.
			if best == nil || abs(onRes.AchievedRate()-median(onRates)) < abs(best.AchievedRate()-median(onRates)) {
				best, bestObs = onRes, onObs
			}
			if !onRes.Conserved() {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"CONSERVATION VIOLATION at rate %d repeat %d: lost=%d dup=%d",
					rate, r, onRes.Lost, onRes.Dup))
			}
		}
		var srvP50, srvP99 float64
		if bestObs != nil {
			srvP50, srvP99 = bestObs.EnqueueLat.P50Ms, bestObs.EnqueueLat.P99Ms
		}
		t.AddRow(rate, median(offRates), median(onRates),
			median(offCPUs), median(onCPUs), median(overheads),
			stats.Percentile(best.EnqLatMs, 50), stats.Percentile(best.EnqLatMs, 99),
			srvP50, srvP99, best.Lost, best.Dup)
	}
	return t, nil
}

// cpuSeconds reads the process's cumulative CPU time (user + system).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// median returns the middle value of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
