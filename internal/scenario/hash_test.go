package scenario

import (
	"reflect"
	"testing"
)

// TestHashCoverageMatchesSpec is the reflection-based runtime complement
// of reprovet's hashcover analyzer: every Spec field must be declared in
// exactly one of the coverage maps, every declared name must be a real
// field, and every allowlist entry must carry its justification. The
// analyzer proves the same facts syntactically (plus that the carriers
// are read by contentHash); this keeps the contract visible even when
// only this package's tests run.
func TestHashCoverageMatchesSpec(t *testing.T) {
	hashed, neutral := hashedVia, hashNeutral
	st := reflect.TypeOf(Spec{})
	fields := map[string]bool{}
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		fields[name] = true
		_, h := hashed[name]
		_, n := neutral[name]
		if h == n {
			t.Errorf("Spec.%s: declared hashed=%v result-neutral=%v; must be exactly one", name, h, n)
		}
	}
	for name := range hashed {
		if !fields[name] {
			t.Errorf("hashedVia entry %q names no Spec field", name)
		}
	}
	for name, just := range neutral {
		if !fields[name] {
			t.Errorf("hashNeutral entry %q names no Spec field", name)
		}
		if just == "" {
			t.Errorf("hashNeutral entry %q carries no justification", name)
		}
	}
}

// TestWireSpecHashesPinned pins the hashes of four wire specs to the
// values the compiler gave them before strict_backfill, "NO" and
// power_model joined the schema: cache keys of existing requests must
// survive the schema growing.
func TestWireSpecHashesPinned(t *testing.T) {
	cases := []struct{ body, hash string }{
		{`{"workload": "CTC"}`,
			"95778e7737a3e907615d6a621146ca2de608ebb6398df882b5a7fb4b9761efb5"},
		{`{"workload": "CTC", "policy": {"bsld_thr": 2, "wq_thr": 16}}`,
			"4e3ce5dd6869e70cf156ac9c40be9ce4d45b4d86484dce04a89dd49ab9bcea88"},
		{`{"workload": "SDSCBlue", "jobs": 1000, "policy": {"bsld_thr": 1.5, "wq_thr": "NO"}, "controller": {"cap_frac": 0.7}}`,
			"1e66b17ce893a4d4aa7d335887e2d5aa7a0808f366d989e13c82056e11fc08b0"},
		{`{"workload": "CTC", "policy": {"bsld_thr": 2, "wq_thr": "NO"},
		  "gears": [{"Freq": 1.7, "Voltage": 1.3}, {"Freq": 2.0, "Voltage": 1.4}, {"Freq": 2.3, "Voltage": 1.5}]}`,
			"6700a94c105bf50111b072c64635d4e98d686189563825f9e1a427796d67b15c"},
	}
	for _, tc := range cases {
		spec, err := decodeSpec([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if h := compile(t, spec).Hash(); h != tc.hash {
			t.Errorf("%s: hash %s, pinned %s", tc.body, h, tc.hash)
		}
	}
}
