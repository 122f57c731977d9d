package bench

import (
	"strings"
	"testing"
	"time"
)

// tiny is an even smaller scale than Quick for unit tests.
var tiny = Scale{Factor: 64}

func TestAllRunnersProduceTables(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			tb, err := r.Run(tiny)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if tb.ID != r.ID {
				t.Fatalf("table ID %q != runner ID %q", tb.ID, r.ID)
			}
			if len(tb.Rows) == 0 || len(tb.Header) == 0 {
				t.Fatalf("%s produced an empty table", r.ID)
			}
			for i, row := range tb.Rows {
				if len(row) != len(tb.Header) {
					t.Fatalf("%s row %d has %d cells, header has %d", r.ID, i, len(row), len(tb.Header))
				}
			}
			out := tb.String()
			if !strings.Contains(out, r.ID) {
				t.Fatalf("%s rendering lacks ID:\n%s", r.ID, out)
			}
		})
	}
}

func TestT8RecoveryReportsConsistency(t *testing.T) {
	tb, err := RunT8Recovery(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("recovery row inconsistent: %v", row)
		}
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("F2"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("unknown experiment found")
	}
}

func TestScaleDiv(t *testing.T) {
	if Full.div(100) != 100 {
		t.Fatal("full scale must not shrink")
	}
	if Quick.div(100) != 12 {
		t.Fatalf("quick div = %d", Quick.div(100))
	}
	if (Scale{Factor: 1000}).div(100) != 1 {
		t.Fatal("div must not reach zero")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:     "F2",
		Title:  "Escrow scaling",
		Header: []string{"writers", "escrow tx/s", "xlock tx/s"},
	}
	tb.AddRow("1", "1000", "990")
	tb.AddRow("32", "9000", "1001")
	tb.Notes = append(tb.Notes, "SyncNone")
	out := tb.String()
	for _, want := range []string{"F2", "Escrow scaling", "writers", "9000", "note: SyncNone"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
}

func TestFormatters(t *testing.T) {
	if F(0) != "0" || F(1234.5) != "1234" || F(42.25) != "42.2" || F(1.5) != "1.500" {
		t.Fatalf("F: %s %s %s %s", F(0), F(1234.5), F(42.25), F(1.5))
	}
	if D(0) != "0" || D(500*time.Nanosecond) != "500ns" || D(10500*time.Nanosecond) != "10.5µs" {
		t.Fatalf("D small: %s %s %s", D(0), D(500*time.Nanosecond), D(10500*time.Nanosecond))
	}
	if D(25*time.Millisecond) != "25.00ms" || D(1500*time.Millisecond) != "1.50s" {
		t.Fatalf("D big: %s %s", D(25*time.Millisecond), D(1500*time.Millisecond))
	}
}
