package verify

import (
	"testing"

	"repro/internal/record"
)

func ent(k string, vals ...int64) Entry {
	row := make(record.Row, len(vals))
	for i, v := range vals {
		row[i] = record.Int(v)
	}
	return Entry{Key: record.EncodeKey(record.Row{record.Str(k)}), Val: row}
}

// walk streams have through a Walk over want, as a scan would.
func walk(want, have []Entry, max int) []Diff {
	w := Walk{Want: want, Max: max}
	for _, e := range have {
		if !w.Stored(e.Key, e.Val) {
			break
		}
	}
	return w.Done()
}

func TestCompareAgree(t *testing.T) {
	want := []Entry{ent("a", 1), ent("b", 2)}
	have := []Entry{ent("a", 1), ent("b", 2)}
	if d := walk(want, have, 0); len(d) != 0 {
		t.Fatalf("expected no diffs, got %v", d)
	}
}

func TestCompareKinds(t *testing.T) {
	want := []Entry{ent("a", 1), ent("c", 3), ent("d", 4)}
	have := []Entry{ent("b", 2), ent("c", 30), ent("d", 4)}
	diffs := walk(want, have, 0)
	if len(diffs) != 3 {
		t.Fatalf("expected 3 diffs, got %d: %v", len(diffs), diffs)
	}
	if diffs[0].Kind != DiffMissing || diffs[1].Kind != DiffExtra || diffs[2].Kind != DiffMismatch {
		t.Fatalf("unexpected kinds: %v %v %v", diffs[0].Kind, diffs[1].Kind, diffs[2].Kind)
	}
	for _, d := range diffs {
		if d.Error("v").Error() == "" {
			t.Fatal("empty rendering")
		}
	}
}

func TestCompareTails(t *testing.T) {
	// Extra tail on the have side and missing tail on the want side.
	if d := walk([]Entry{ent("a", 1)}, []Entry{ent("a", 1), ent("z", 9)}, 0); len(d) != 1 || d[0].Kind != DiffExtra {
		t.Fatalf("have-tail: got %v", d)
	}
	if d := walk([]Entry{ent("a", 1), ent("z", 9)}, []Entry{ent("a", 1)}, 0); len(d) != 1 || d[0].Kind != DiffMissing {
		t.Fatalf("want-tail: got %v", d)
	}
}

func TestCompareMax(t *testing.T) {
	want := []Entry{ent("a", 1), ent("b", 1), ent("c", 1)}
	if d := walk(want, nil, 2); len(d) != 2 {
		t.Fatalf("cap not honored: got %d diffs", len(d))
	}
	// Stored asks for no more rows once the cap is reached.
	w := Walk{Want: want, Max: 1}
	if w.Stored(ent("0", 1).Key, ent("0", 1).Val) {
		t.Fatal("Stored wants more rows after the cap")
	}
	if d := w.Done(); len(d) != 1 || d[0].Kind != DiffExtra {
		t.Fatalf("capped walk: got %v", d)
	}
}

// TestCompareCopiesReusedRows: a scan decodes every stored row into one reused
// key buffer and row, so a diff must hold copies, not the caller's buffers.
func TestCompareCopiesReusedRows(t *testing.T) {
	w := Walk{Want: []Entry{ent("b", 2), ent("c", 3)}}
	key, row := []byte(nil), record.Row{record.Int(0)}
	for _, e := range []Entry{ent("a", 1), ent("b", 20)} {
		key = append(key[:0], e.Key...)
		row[0] = e.Val[0]
		w.Stored(key, row)
	}
	key[0], row[0] = 0, record.Int(-1)
	d := w.Done()
	if len(d) != 3 {
		t.Fatalf("got %d diffs, want extra a, mismatch b, missing c: %v", len(d), d)
	}
	if string(d[0].Key) != string(ent("a", 1).Key) || d[0].Have[0].AsInt() != 1 {
		t.Fatalf("extra diff aliases the caller's buffers: key %x, have %v", d[0].Key, d[0].Have)
	}
	if d[1].Kind != DiffMismatch || d[1].Have[0].AsInt() != 20 || d[1].Want[0].AsInt() != 2 {
		t.Fatalf("mismatch diff = %+v", d[1])
	}
	if d[2].Kind != DiffMissing || string(d[2].Key) != string(ent("c", 3).Key) {
		t.Fatalf("missing diff = %+v", d[2])
	}
}
