package bytecard

import (
	"reflect"
	"testing"

	"bytecard/internal/engine"
)

// Pushdown parity system tests: with the real ByteCard estimator in the
// planner, the pushdown scan contract (zone-map block skipping,
// predicate/projection/limit pushdown, late materialization) must be an
// I/O optimization only — results byte-identical to the legacy scan path
// across the JOB-Hybrid, STATS-Hybrid, and TimeSeries-Probes workloads,
// while never reading more blocks than it.

// runWithPushdown executes sql with the knob pinned to on (+1) or off (-1),
// restoring the engine's default afterwards.
func runWithPushdown(t *testing.T, sys *System, sql string, pushdown int) *engine.Result {
	t.Helper()
	prev := sys.Engine.Pushdown
	sys.Engine.Pushdown = pushdown
	defer func() { sys.Engine.Pushdown = prev }()
	res, err := sys.Run(sql)
	if err != nil {
		t.Fatalf("%s (pushdown=%d): %v", sql, pushdown, err)
	}
	return res
}

// TestPushdownParityWorkloads runs every workload query twice — pushdown
// on, then off — on the same trained system and requires byte-identical
// result sets. The plan cache stays hot across both runs, so this also
// exercises warm hits executed after a knob flip (routing is read from the
// live knob when a plan executes).
func TestPushdownParityWorkloads(t *testing.T) {
	for _, dataset := range []string{"imdb", "stats", "timeseries"} {
		sys := fastpathSystem(t, dataset)
		w, err := sys.Workload(17)
		if err != nil {
			t.Fatal(err)
		}
		queries := w.Queries
		if len(queries) > 20 {
			queries = queries[:20]
		}
		var onBlocks, offBlocks, skipped int64
		for _, wq := range queries {
			on := runWithPushdown(t, sys, wq.SQL, 1)
			off := runWithPushdown(t, sys, wq.SQL, -1)
			if !reflect.DeepEqual(on.Columns, off.Columns) || !reflect.DeepEqual(on.Rows, off.Rows) {
				t.Errorf("%s/%s: pushdown-on result diverges from pushdown-off", dataset, wq.SQL)
			}
			if onRead, offRead := on.Metrics.IO.BlocksRead(), off.Metrics.IO.BlocksRead(); onRead > offRead {
				t.Errorf("%s/%s: pushdown read %d blocks, legacy path %d — pushdown must never read more",
					dataset, wq.SQL, onRead, offRead)
			}
			onBlocks += on.Metrics.IO.BlocksRead()
			offBlocks += off.Metrics.IO.BlocksRead()
			skipped += on.Metrics.IO.BlocksSkipped()
		}
		t.Logf("%s: %d queries, blocks %d pushdown vs %d legacy (%d skipped)",
			dataset, len(queries), onBlocks, offBlocks, skipped)
		// The time-series probes are built to be zone-skippable: narrow
		// append-ordered windows must show a strict read reduction.
		if dataset == "timeseries" && (onBlocks >= offBlocks || skipped == 0) {
			t.Errorf("timeseries: pushdown read %d blocks vs %d legacy, %d skipped — expected strict reduction",
				onBlocks, offBlocks, skipped)
		}
	}
}
