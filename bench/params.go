//go:build linux

package main

import "time"

// Workload constants. They are fixed by the PR that defined the benchmark
// and are never retuned afterwards: a later PR that changes one of them has
// changed the instrument, not the system (see README.md). A run's length is
// the one thing the caller chooses (-seconds); it sets how many trials of
// these fixed sizes are timed, never the size of a trial.
const (
	defaultSeed    = 42
	defaultSeconds = 24

	// Latency sampling on the lib workloads: every sampleEvery-th call is
	// timed and every sampleEvery-th value carries a stamp.
	sampleEvery = 64

	// lib-core-pairs
	corePairsProcs   = 16   // p of repro.NewQueue; workers sit on handles 0 and p-1
	corePairsPrefill = 1024 // depth q the tree engine works at

	// lib-bounded-prodcons
	prodconsShards  = 4
	prodconsHandles = 4    // leased producer handles the producer rotates over
	prodconsCredit  = 1024 // values the producer may run ahead of the consumer

	// svc workloads: one queued child, one generator process, 2 connections.
	svcShards           = 4
	svcWindow           = 64
	svcCallers          = 16                     // concurrent callers per connection
	svcCredit           = 4096                   // closed trials: values in flight between producers and consumers
	svcEmptyBackoff     = 200 * time.Microsecond // a consumer's first back-off after an empty dequeue
	svcBackoffDoublings = 4                      // it doubles per consecutive empty answer, up to 3.2 ms
	svcLateLimit        = time.Millisecond       // a send later than this counts into gen.late_frac
	svcDrainTimeout     = 5 * time.Second        // consumers give up this long after the last ack; what is missing is lost
	soloMaxEmpties      = 1000                   // solo trials: empty answers in a row a caller accepts while its acknowledged values are in the queue

	singlesValueLen = 64
	singlesOpenRate = 10_000 // values/s, Poisson

	batchM        = 32
	batchValueLen = 256
	batchOpenRate = 2_000 // frames/s, Poisson (128 000 values/s)
	tracedEvery   = 16    // traced pass: every 16th request is a traced one

	// The closed trials must reach this multiple of the open trials' rate,
	// so the open trials run at no more than 40% of what the service can do.
	closedOverOpenMin = 2.5

	// Ledger: one seeded op stream through every boundary.
	ledgerProcs    = 16
	ledgerDepth    = 1024
	ledgerValueLen = 64
	ledgerInflight = 32 // frames in flight at the server and client boundaries
	ledgerPasses   = 3  // each cell is measured this often; the median pass is reported

	// Spans kept per recorder; calls beyond it are still timed, so the cost
	// of tracing does not change when the buffer fills.
	maxSpans = 1 << 16
)

// sizes are the op counts and trial counts of a run. Every measured run
// uses fullSizes; smokeSizes exists so the tests can push a few operations
// through every code path in seconds.
type sizes struct {
	corePairsPerWkr  int // (Enqueue; Dequeue) pairs per worker per trial
	prodconsPerTrial int // values per trial
	ledgerPairs      int // (enqueue; dequeue) pairs of single values per ledger cell

	warmups   int // lib: trials before timing starts
	minTrials int // lib: fewest timed trials a median is taken over
	setups    int // set-up is repeated and its median reported, so a cold first build does not read as a slow set-up

	svcWarmup    time.Duration // closed-loop warm-up that ends each set-up
	svcTrial     time.Duration // length of one svc trial, open, closed or solo
	tracedTrials int           // traced pass: fewest trials each with tracing off and on
	floorSec     float64       // traced pass: how long the generator drives the null server, open and again solo
}

var fullSizes = sizes{
	corePairsPerWkr:  250_000,
	prodconsPerTrial: 150_000,
	ledgerPairs:      16384,
	warmups:          1,
	minTrials:        5,
	setups:           3,
	svcWarmup:        500 * time.Millisecond,
	svcTrial:         time.Second,
	tracedTrials:     2,
	floorSec:         2,
}

var smokeSizes = sizes{
	corePairsPerWkr:  2000,
	prodconsPerTrial: 2000,
	ledgerPairs:      256,
	warmups:          1,
	minTrials:        1,
	setups:           1,
	svcWarmup:        50 * time.Millisecond,
	svcTrial:         50 * time.Millisecond,
	tracedTrials:     1,
	floorSec:         0.15,
}
