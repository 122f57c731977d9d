package main

import (
	"encoding/json"
	"strings"

	vtxn "repro"
)

// Engine counters are read from DB.Metrics() as JSON and addressed by key
// path, so a renamed field yields a zero per-layer value and a note on
// standard error, never a build break.

type metricsDoc map[string]any

func readMetrics(db *vtxn.DB) metricsDoc {
	var doc metricsDoc
	b, err := json.Marshal(db.Metrics())
	if err == nil {
		err = json.Unmarshal(b, &doc)
	}
	if err != nil {
		warnf("engine metrics unreadable: %v", err)
	}
	return doc
}

// num returns the number at a dotted path ("wal.appends").
func (d metricsDoc) num(path string) float64 {
	var cur any = map[string]any(d)
	for _, k := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			cur = nil
			break
		}
		cur = m[k]
	}
	f, ok := cur.(float64)
	if !ok {
		warnf("engine metric %q is missing", path)
	}
	return f
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineLayers turns the engine's counter deltas over the measured write
// phase into the per-layer counts.
func engineLayers(vals map[string]float64, wr *phase) {
	delta := func(path string) float64 { return wr.after.num(path) - wr.before.num(path) }
	tx := float64(wr.done)
	vals["lock.requests_per_tx"] = ratio(delta("lock.requests"), tx)
	vals["lock.wait_share"] = ratio(delta("lock.wait.sum_ns"), float64(wr.elapsed.Nanoseconds()))
	vals["escrow.fold_rows_per_tx"] = ratio(delta("escrow.fold_rows"), tx)
	created := delta("ghosts.created")
	vals["ghost.created_per_ktx"] = ratio(1000*created, tx)
	vals["ghost.erased_share"] = ratio(delta("ghosts.erased"), created)
	vals["ghost.backlog_high_water"] = wr.after.num("ghosts.backlog_high_water")
	appends := delta("wal.appends")
	vals["wal.bytes_per_record"] = ratio(float64(wr.walBytes), appends)
	vals["wal.records_per_tx"] = ratio(appends, tx)
	vals["wal.flushes_per_tx"] = ratio(delta("wal.flushes"), tx)
	stamped := delta("mvcc.versions_stamped")
	vals["mvcc.versions_stamped_per_tx"] = ratio(stamped, tx)
	vals["mvcc.chain_len_high_water"] = wr.after.num("mvcc.chain_len_high_water")
	vals["mvcc.chains_end"] = wr.after.num("mvcc.chains")
	vals["mvcc.pruned_share"] = ratio(delta("mvcc.versions_pruned"), stamped)
	vals["applier.coalesce_ratio"] = ratio(delta("deferred.deltas_coalesced"), delta("deferred.deltas_in"))
	vals["applier.queue_high_water"] = wr.after.num("deferred.queue_high_water")
	vals["cascade.folds_per_tx"] = ratio(delta("cascade.folds"), tx)
	vals["cascade.coalesced_share"] = ratio(delta("cascade.coalesced"), delta("cascade.enqueued"))
}

// recoveryLayers splits the first reopen by restart phase.
func recoveryLayers(vals map[string]float64, after metricsDoc) {
	vals["recovery.analysis_s"] = after.num("recovery.analysis_ns") / 1e9
	vals["recovery.redo_s"] = after.num("recovery.redo_ns") / 1e9
	vals["recovery.undo_s"] = after.num("recovery.undo_ns") / 1e9
	vals["recovery.redo_us_per_record"] = ratio(after.num("recovery.redo_ns")/1e3, after.num("recovery.replayed"))
}
