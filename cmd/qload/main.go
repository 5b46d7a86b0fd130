// Command qload drives a queued instance with open-loop load and reports
// end-to-end latency percentiles per offered rate (experiment T11), or per-
// queue throughput isolation as the tenant count grows (multi-tenant
// sweep mode, experiment T13).
//
// The generator is open-loop: enqueue send times follow the target rate
// regardless of how fast the service responds, and every latency is
// measured from the op's scheduled send time, so overload shows up as
// queueing delay in the percentiles instead of silently throttling the
// offered load. Producers pipeline enqueues within a bounded window;
// consumers drain concurrently; after the producing phase the run verifies
// exact conservation — every acknowledged value dequeued exactly once,
// per queue — and qload exits 1 if any value was lost or duplicated.
//
// Usage:
//
//	queued -addr 127.0.0.1:7474 &
//	qload -addr 127.0.0.1:7474 -rates 1000,4000,16000 -duration 2s
//	qload -addr 127.0.0.1:7474 -rates 8000 -producers 4 -consumers 4 \
//	      -value-size 256 -burst 16 -json bench_results
//	qload -addr 127.0.0.1:7474 -rates 20000 -batch 16   # native batch frames
//	qload -addr 127.0.0.1:7474 -rates 8000 -queue jobs  # one named queue
//	qload -addr 127.0.0.1:7474 -rates 16000 -tenants 1,2,4 -json bench_results
//	qload -addr 127.0.0.1:7474 -rates 8000 -scrape       # + server-side percentiles
//	qload -addr 127.0.0.1:7474 -rates 8000 -trace 16     # + stage decomposition
//
// -queue runs the T11 sweep against one named queue instead of the
// default queue. -tenants switches to the T13 sweep: for each tenant
// count N, N concurrent open-loop runs each drive their own named queue
// at 1/N of the single -rates value, so rows compare at equal aggregate
// offered load; conservation is checked per queue.
//
// -scrape (sweep mode only) fetches the server's own latency histograms
// after the sweep and prints the server-side per-queue percentiles next
// to the client-side table: the client view measures scheduled-send to
// ack, the server view frame read to reply, so the two agree within the
// network round trip plus client scheduling delay.
//
// -trace N (sweep mode only) traces every Nth enqueue frame end to end:
// the client stamps its send time into the frame, the server (run it with
// observability on, the default) ships back per-stage timestamps in the
// reply, and qload prints a stage-decomposition table per rate under the
// client table — where each rate's latency actually goes: client
// scheduling, server batcher wait, the fabric op, reply assembly, or the
// network. The same spans land in the server's /spanz reservoir and
// /metricsz stage histograms for the server-side view.
//
// -json emits bench_results/BENCH_T11.json (BENCH_T13.json in tenant
// mode) in the same schema as cmd/benchqueue's tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stats"
)

func main() {
	var (
		addr      = flag.String("addr", "", "queued address to drive (required)")
		ratesFlag = flag.String("rates", "1000,4000,16000", "comma-separated offered enqueue rates, ops/s")
		duration  = flag.Duration("duration", 2*time.Second, "producing phase length per rate")
		producers = flag.Int("producers", 2, "producer connections")
		consumers = flag.Int("consumers", 2, "consumer connections")
		valueSize = flag.Int("value-size", 64, fmt.Sprintf("value payload bytes (min %d: key + timestamp + run nonce)", server.MinValueSize))
		burst     = flag.Int("burst", 1, "frames per scheduling tick per producer; raises burstiness at the same average rate")
		batch     = flag.Int("batch", 1, "values per wire frame; >1 uses the native ENQ_BATCH/DEQ_BATCH opcodes end to end")
		window    = flag.Int("window", 32, "max in-flight enqueues per producer connection")
		drain     = flag.Duration("drain", 10*time.Second, "max wait for consumers to finish after producers stop")
		queue     = flag.String("queue", "", "drive this named queue instead of the default queue")
		tenants   = flag.String("tenants", "", "comma-separated tenant counts: run the T13 multi-queue sweep at the single -rates value as aggregate load")
		jsonDir   = flag.String("json", "", "write the result table as BENCH_T11.json (BENCH_T13.json with -tenants) into this directory")
		scrape    = flag.Bool("scrape", false, "after the sweep, snapshot the server's own latency histograms and print the server-side percentiles next to the client-side table")
		trace     = flag.Int("trace", 0, "trace every Nth enqueue frame and print a per-stage latency decomposition per rate (0 disables; needs a server with observability on)")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "qload: -addr is required (start cmd/queued first)")
		os.Exit(2)
	}
	rates, err := parseRates(*ratesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qload:", err)
		os.Exit(2)
	}
	load := server.LoadConfig{
		Duration:     *duration,
		Producers:    *producers,
		Consumers:    *consumers,
		ValueSize:    *valueSize,
		Burst:        *burst,
		Batch:        *batch,
		Window:       *window,
		DrainTimeout: *drain,
		Queue:        *queue,
		TraceEvery:   *trace,
	}
	if *tenants != "" {
		if *trace > 0 {
			fmt.Fprintln(os.Stderr, "qload: -trace works in sweep mode only; drop -tenants")
			os.Exit(2)
		}
		runTenantSweep(*addr, *tenants, rates, load, *jsonDir)
		return
	}
	table, results, err := harness.ExpServiceLatencyResults(rates, harness.ServiceConfig{Addr: *addr, Load: load})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qload:", err)
		os.Exit(1)
	}
	fmt.Println(table.String())

	violated := false
	for i, res := range results {
		fmt.Printf("rate %6d: offered=%d acked=%d busy=%d errors=%d consumed=%d foreign=%d lost=%d dup=%d\n",
			rates[i], res.Offered, res.Acked, res.Busy, res.Errors,
			res.Consumed, res.Foreign, res.Lost, res.Dup)
		violated = violated || !res.Conserved()
	}
	if *trace > 0 {
		printTraceTable(rates, results, *trace)
	}
	if *scrape {
		if err := scrapeServerView(*addr, *queue); err != nil {
			fmt.Fprintln(os.Stderr, "qload: -scrape:", err)
			os.Exit(1)
		}
	}
	if *jsonDir != "" {
		path, err := harness.WriteTableJSON(*jsonDir, table)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qload:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "qload: wrote", path)
	}
	if violated {
		fmt.Fprintln(os.Stderr, "qload: CONSERVATION VIOLATION (values lost or duplicated)")
		os.Exit(1)
	}
}

// runTenantSweep executes the T13 multi-tenant experiment against a
// running queued and exits 1 if any tenant at any count lost or
// duplicated a value.
func runTenantSweep(addr, tenantsFlag string, rates []int, load server.LoadConfig, jsonDir string) {
	counts, err := parseRates(tenantsFlag) // same grammar: positive ints
	if err != nil {
		fmt.Fprintln(os.Stderr, "qload: -tenants:", err)
		os.Exit(2)
	}
	if len(rates) != 1 {
		fmt.Fprintln(os.Stderr, "qload: -tenants needs exactly one -rates value (the aggregate offered rate)")
		os.Exit(2)
	}
	if load.Queue != "" {
		fmt.Fprintln(os.Stderr, "qload: -queue conflicts with -tenants (tenant queues are named automatically)")
		os.Exit(2)
	}
	load.Rate = rates[0]
	table, results, err := harness.ExpMultiTenantResults(counts, harness.MultiTenantConfig{Addr: addr, Load: load})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qload:", err)
		os.Exit(1)
	}
	fmt.Println(table.String())

	violated := false
	for i, row := range results {
		for j, res := range row {
			if !res.Conserved() {
				fmt.Fprintf(os.Stderr, "qload: tenants=%d queue %d: lost=%d dup=%d\n",
					counts[i], j, res.Lost, res.Dup)
				violated = true
			}
		}
	}
	if jsonDir != "" {
		path, err := harness.WriteTableJSON(jsonDir, table)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qload:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "qload: wrote", path)
	}
	if violated {
		fmt.Fprintln(os.Stderr, "qload: CONSERVATION VIOLATION (values lost or duplicated)")
		os.Exit(1)
	}
}

// printTraceTable prints the per-stage latency decomposition of the traced
// enqueue frames, one row per rate: where each rate's end-to-end latency
// goes. sched is client pacing plus in-flight window wait (client clock);
// wait, fabric, and reply are the server's own stamps shipped back in the
// traced replies; net is the RTT minus the server's read-to-reply window
// (network both ways, server socket flush, client read path); total is the
// same scheduled-send-to-ack metric as the enq columns above, so the rows
// reconcile directly against the client table. srv-sampled counts traces
// the server actually stamped — 0 means it runs with -obs=false.
func printTraceTable(rates []int, results []*server.LoadResult, every int) {
	fmt.Printf("\nrequest-trace stage decomposition (every %dth enqueue frame traced; p50/p99 ms):\n", every)
	fmt.Printf("%8s %8s %11s  %-13s %-13s %-13s %-13s %-13s %-13s\n",
		"rate", "traced", "srv-sampled", "sched", "wait", "fabric", "reply", "net", "total")
	for i, res := range results {
		var sched, wait, fabric, reply, net, total []float64
		sampled := 0
		for _, s := range res.Traces {
			sched = append(sched, s.SchedMs)
			total = append(total, s.TotalMs)
			if !s.ServerSampled {
				continue
			}
			sampled++
			wait = append(wait, s.WaitMs)
			fabric = append(fabric, s.FabricMs)
			reply = append(reply, s.ReplyMs)
			net = append(net, s.NetMs)
		}
		pp := func(v []float64) string {
			return fmt.Sprintf("%5.2f/%6.2f", stats.Percentile(v, 50), stats.Percentile(v, 99))
		}
		fmt.Printf("%8d %8d %11d  %-13s %-13s %-13s %-13s %-13s %-13s\n",
			rates[i], len(res.Traces), sampled,
			pp(sched), pp(wait), pp(fabric), pp(reply), pp(net), pp(total))
	}
	fmt.Println("slow exemplars with the same decomposition are on the server's /spanz; aggregate stage histograms on /metricsz (queued_stage_latency_seconds).")
}

// scrapeServerView fetches the server's Snapshot over the wire and prints
// the per-queue latency percentiles the server itself measured — the view
// its observability layer recorded while the sweep above was hammering it.
// The client-side table measures scheduled-send to ack; the server-side
// view measures frame read to reply, so the two should agree within the
// network round trip plus client scheduling delay. queue narrows the
// print to one named queue ("" prints all).
func scrapeServerView(addr, queue string) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	raw, err := c.Stats()
	if err != nil {
		return err
	}
	var snap server.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return err
	}
	if snap.Obs == nil {
		return fmt.Errorf("server reports no observability data (started with -obs=false?)")
	}
	fmt.Println("\nserver-side latency (frame read to reply, measured by the server's histograms):")
	fmt.Printf("%-16s %-13s %10s %10s %10s %10s\n", "queue", "op", "count", "p50 ms", "p99 ms", "max ms")
	for _, qs := range snap.Queues {
		if queue != "" && qs.Name != queue {
			continue
		}
		for _, col := range []struct {
			op string
			s  *obs.LatencySummary
		}{
			{"enqueue", qs.EnqueueLat},
			{"dequeue", qs.DequeueLat},
			{"batch", qs.BatchLat},
			{"null_dequeue", qs.NullDequeueLat},
		} {
			if col.s == nil {
				continue
			}
			fmt.Printf("%-16s %-13s %10d %10.3f %10.3f %10.3f\n",
				qs.Name, col.op, col.s.Count, col.s.P50Ms, col.s.P99Ms, col.s.MaxMs)
		}
	}
	fmt.Println("compare with the client-side table above: client latency = server latency + network round trip + client scheduling delay.")
	return nil
}

// parseRates parses a comma-separated list of positive integers (-rates,
// -tenants).
func parseRates(s string) ([]int, error) {
	out := make([]int, 0, 4)
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("invalid value %q", part)
		}
		if n < 1 {
			return nil, fmt.Errorf("value %d must be positive", n)
		}
		out = append(out, n)
	}
	return out, nil
}
