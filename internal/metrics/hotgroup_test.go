package metrics

import (
	"slices"
	"testing"
)

func TestHotGroupGrowth(t *testing.T) {
	prev := []HotGroupSnapshot{
		{Tree: 1, View: "a", Key: "grew", Value: 100},
		{Tree: 1, View: "a", Key: "fell", Value: 900},
		{Tree: 2, View: "b", Key: "grew", Value: 5}, // same key, other view
	}
	for _, tc := range []struct {
		name string
		cur  []HotGroupSnapshot
		want []int64
	}{
		{"grew", []HotGroupSnapshot{{Tree: 1, Key: "grew", Value: 250}}, []int64{150}},
		{"new group grows from zero", []HotGroupSnapshot{{Tree: 1, Key: "new", Value: 40}}, []int64{40}},
		{"estimate fell grows by zero", []HotGroupSnapshot{{Tree: 1, Key: "fell", Value: 300}}, []int64{0}},
		{"matched by tree and key", []HotGroupSnapshot{
			{Tree: 2, Key: "grew", Value: 7},
			{Tree: 1, Key: "grew", Value: 100},
		}, []int64{2, 0}},
		{"empty", nil, []int64{}},
	} {
		if got := HotGroupGrowth(prev, tc.cur); !slices.Equal(got, tc.want) {
			t.Errorf("%s: HotGroupGrowth = %v, want %v", tc.name, got, tc.want)
		}
	}
}
