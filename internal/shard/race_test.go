//go:build race

package shard

// growBacklog is the larger backlog TestGrowCostIndependentOfBacklog grows
// a fabric at: smaller under -race, whose shadow memory slows every
// enqueue.
const growBacklog = 20_000
