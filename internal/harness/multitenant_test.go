package harness

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestExpMultiTenantSmoke runs a tiny T13 sweep in-process: both rows
// must conserve per queue, see no value cross queues, and give every
// tenant some acknowledged throughput.
func TestExpMultiTenantSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a server and paces real time")
	}
	tab, err := ExpMultiTenant([]int{1, 2}, MultiTenantConfig{
		Shards: 2,
		Load: server.LoadConfig{
			Rate:         2000,
			Duration:     300 * time.Millisecond,
			Producers:    1,
			Consumers:    1,
			DrainTimeout: 5 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "T13" {
		t.Fatalf("table ID = %q, want T13", tab.ID)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	col := func(name string) int {
		for i, c := range tab.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("no %q column in %v", name, tab.Columns)
		return -1
	}
	minQ, lost, dup := col("min q/s"), col("lost"), col("dup")
	for i, row := range tab.Rows {
		if row[lost] != "0" || row[dup] != "0" {
			t.Errorf("row %d: lost=%s dup=%s", i, row[lost], row[dup])
		}
		if v, err := strconv.ParseFloat(row[minQ], 64); err != nil || v <= 0 {
			t.Errorf("row %d: slowest tenant achieved %q/s; every tenant must be acknowledged", i, row[minQ])
		}
	}
	for _, note := range tab.Notes {
		if strings.Contains(note, "VIOLATION") || strings.Contains(note, "foreign") {
			t.Errorf("table notes report a fault: %s", note)
		}
	}
}
