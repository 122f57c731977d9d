package core

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/record"
)

// hotTopK is how many heavy hitters each hotspot listing carries. The
// sketches track more (their full capacity); the snapshot reports the head.
const hotTopK = 10

// hotspots builds the heavy-hitter listings of a metrics snapshot: sketch
// entries with tree IDs resolved to catalog names (lock waits attribute any
// key resource, so base-table and index rows can surface too) and encoded
// group keys decoded into their human-readable values. Metrics adds the
// per-view maintenance cost table.
func (db *DB) hotspots() metrics.HotspotsSnapshot {
	cat := db.Catalog()
	return metrics.HotspotsSnapshot{
		SketchCapacity: db.met.Hot.LockWait.Cap(),
		TopWait:        hotGroups(db.met.Hot.LockWait.Top(hotTopK), cat),
		TopDelta:       hotGroups(db.met.Hot.EscrowDeltas.Top(hotTopK), cat),
	}
}

// hotGroups renders sketch entries for the snapshot.
func hotGroups(stats []metrics.HotStat, cat *catalog.Catalog) []metrics.HotGroupSnapshot {
	out := make([]metrics.HotGroupSnapshot, 0, len(stats))
	for _, st := range stats {
		name, ok := cat.TreeName(st.Key.Tree)
		if !ok {
			name = st.Key.Tree.String()
		}
		out = append(out, metrics.HotGroupSnapshot{
			Tree:  uint32(st.Key.Tree),
			View:  name,
			Key:   decodeHotKey(st.Key.Key),
			Value: st.Val,
			Count: st.Cnt,
			Err:   st.Err,
		})
	}
	return out
}

// decodeHotKey renders an encoded tree key as its comma-joined column
// values; undecodable keys fall back to hex so the entry is never dropped.
func decodeHotKey(key string) string {
	rest := []byte(key)
	parts := make([]string, 0, 2)
	for len(rest) > 0 {
		v, r, err := record.DecodeKeyValue(rest)
		if err != nil {
			return fmt.Sprintf("0x%x", key)
		}
		parts = append(parts, v.String())
		rest = r
	}
	return strings.Join(parts, ",")
}
