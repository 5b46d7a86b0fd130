package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
)

// MultiTenantConfig shapes the T13 multi-tenant isolation experiment,
// which runs against an in-process server over a Shards-shard fabric on
// a loopback ephemeral port.
type MultiTenantConfig struct {
	Shards  int
	Backend shard.Backend

	// Load is the per-row run shape. Load.Rate is the AGGREGATE offered
	// enqueue rate across all tenants of a row (default 8000 ops/s); each
	// of a row's N tenants is offered Rate/N, so rows are comparable at
	// equal total load. Load.Queue is ignored — tenants get generated
	// names.
	Load server.LoadConfig
}

// ExpMultiTenant (T13): per-queue throughput isolation and fairness as
// the tenant count grows. For each tenant count N, N independent
// open-loop runs execute concurrently against one server, each targeting
// its own named queue at 1/N of the aggregate offered rate. Per queue,
// the run verifies exact conservation (every acknowledged value dequeued
// exactly once, from that queue only — a value crossing queues would
// surface as Foreign in one run and Lost in another). The row reports the
// slowest and fastest tenant's achieved rate, their ratio (fairness), and
// the worst end-to-end p99. With ideal isolation, min/s stays near
// (aggregate achieved at N=1)/N: naming queues multiplies tenants without
// starving any of them, because each named queue is its own fabric and
// sessions lease handles per (connection, queue).
func ExpMultiTenant(tenants []int, cfg MultiTenantConfig) (*Table, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("harness: no tenant counts")
	}
	maxTenants, sumTenants := 0, 0
	for _, n := range tenants {
		if n < 1 {
			return nil, fmt.Errorf("harness: tenant count %d must be positive", n)
		}
		if n > maxTenants {
			maxTenants = n
		}
		sumTenants += n
	}
	if cfg.Load.Rate <= 0 {
		cfg.Load.Rate = 8000
	}
	if cfg.Load.Duration <= 0 {
		cfg.Load.Duration = time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Backend == "" {
		cfg.Backend = shard.BackendCore
	}
	// Every connection leases a default-queue handle at accept, and the
	// widest row opens (producers + consumers) connections per tenant —
	// size the registry for that, or the sweep refuses its own sessions.
	prod, cons := cfg.Load.Producers, cfg.Load.Consumers
	if prod <= 0 {
		prod = 2
	}
	if cons <= 0 {
		cons = 2
	}
	handles := max(maxTenants*(prod+cons)+8, 16)
	q, err := shard.New[[]byte](cfg.Shards, shard.WithBackend(cfg.Backend),
		shard.WithMaxHandles(handles))
	if err != nil {
		return nil, err
	}
	// Rows get distinct queue names and the idle timeout far exceeds a
	// run, so queues accumulate across the sweep: the cap must cover the
	// sum of all rows' tenants, not just the widest row.
	srv, err := server.Serve("127.0.0.1:0", q, server.WithMaxQueues(sumTenants+8))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	addr := srv.Addr().String()
	t := &Table{
		ID: "T13",
		Title: fmt.Sprintf("Multi-tenant isolation: per-queue throughput vs tenant count (aggregate %d ops/s, %s)",
			cfg.Load.Rate, cfg.Load.Duration),
		Columns: []string{"tenants", "rate/q", "agg achieved/s", "min q/s", "max q/s",
			"fair", "e2e p99 ms", "busy", "lost", "dup"},
		Notes: []string{
			"each tenant is one named queue (its own sharded fabric) driven by an independent open-loop run at rate/q = aggregate/N.",
			"fair = slowest tenant's achieved rate / fastest tenant's (1.00 = perfectly even).",
			"e2e p99 = the worst tenant's p99 (scheduled enqueue to consumer dequeue, coordinated-omission free).",
			"per-queue conservation requires lost = dup = 0 at every tenant count.",
		},
	}
	var baseline float64 // aggregate achieved at the smallest tenant count
	for _, n := range tenants {
		results := make([]*server.LoadResult, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			load := cfg.Load
			load.Rate = max(cfg.Load.Rate/n, 1)
			load.Queue = fmt.Sprintf("t13-n%d-q%d", n, i)
			wg.Add(1)
			go func(i int, load server.LoadConfig) {
				defer wg.Done()
				results[i], errs[i] = server.RunLoad(addr, load)
			}(i, load)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("tenants=%d queue %d: %w", n, i, err)
			}
		}

		var agg, minQ, maxQ, worstP99 float64
		var busy, lost, dup, foreign int64
		for i, res := range results {
			r := res.AchievedRate()
			agg += r
			if i == 0 || r < minQ {
				minQ = r
			}
			if r > maxQ {
				maxQ = r
			}
			if p := stats.Percentile(res.E2ELatMs, 99); p > worstP99 {
				worstP99 = p
			}
			busy += res.Busy
			lost += res.Lost
			dup += res.Dup
			foreign += res.Foreign
		}
		fair := 0.0
		if maxQ > 0 {
			fair = minQ / maxQ
		}
		t.AddRow(n, cfg.Load.Rate/n, agg, minQ, maxQ, fair, worstP99, busy, lost, dup)
		if baseline == 0 {
			baseline = agg
		} else if baseline > 0 && n > 0 {
			share := baseline / float64(n)
			if share > 0 {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"N=%d: slowest tenant achieved %.2fx of its fair share of the N=%d aggregate (%.0f/s of %.0f/s).",
					n, minQ/share, tenants[0], minQ, share))
			}
		}
		if lost != 0 || dup != 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"CONSERVATION VIOLATION at tenants=%d: lost=%d dup=%d", n, lost, dup))
		}
		if foreign != 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"tenants=%d: %d foreign values observed (cross-queue leakage or leftover backlog)", n, foreign))
		}
	}
	return t, nil
}
