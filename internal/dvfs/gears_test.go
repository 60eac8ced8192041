package dvfs

import "testing"

func TestPaperGearSetMatchesTable2(t *testing.T) {
	gs := PaperGearSet()
	want := []struct{ f, v float64 }{
		{0.8, 1.0}, {1.1, 1.1}, {1.4, 1.2}, {1.7, 1.3}, {2.0, 1.4}, {2.3, 1.5},
	}
	if len(gs) != len(want) {
		t.Fatalf("gear count = %d, want %d", len(gs), len(want))
	}
	for i, w := range want {
		if gs[i].Freq != w.f || gs[i].Voltage != w.v {
			t.Errorf("gear %d = %v, want %.1fGHz@%.1fV", i, gs[i], w.f, w.v)
		}
	}
}

func TestGearSetValidate(t *testing.T) {
	if err := PaperGearSet().Validate(); err != nil {
		t.Errorf("paper gear set invalid: %v", err)
	}
	cases := []struct {
		name string
		gs   GearSet
	}{
		{"empty", GearSet{}},
		{"zero freq", GearSet{{0, 1}}},
		{"zero volt", GearSet{{1, 0}}},
		{"non-increasing freq", GearSet{{1, 1}, {1, 1.1}}},
		{"decreasing voltage", GearSet{{1, 1.2}, {2, 1.1}}},
	}
	for _, c := range cases {
		if err := c.gs.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestLowestTop(t *testing.T) {
	gs := PaperGearSet()
	if gs.Lowest().Freq != 0.8 {
		t.Errorf("Lowest = %v", gs.Lowest())
	}
	if gs.Top().Freq != 2.3 {
		t.Errorf("Top = %v", gs.Top())
	}
	if !gs.IsTop(Gear{2.3, 1.5}) {
		t.Error("IsTop(2.3GHz) = false")
	}
	if gs.IsTop(Gear{0.8, 1.0}) {
		t.Error("IsTop(0.8GHz) = true")
	}
}

func TestIndex(t *testing.T) {
	gs := PaperGearSet()
	for i, g := range gs {
		if gs.Index(g) != i {
			t.Errorf("Index(%v) = %d, want %d", g, gs.Index(g), i)
		}
	}
	if gs.Index(Gear{9.9, 9.9}) != -1 {
		t.Error("Index of absent gear != -1")
	}
}

func TestGearString(t *testing.T) {
	if s := (Gear{2.3, 1.5}).String(); s != "2.3GHz@1.5V" {
		t.Errorf("String = %q", s)
	}
}
