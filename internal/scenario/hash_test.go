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
