package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

// decodeSpec decodes a wire spec the way cmd/schedd and bsldsim -config
// do: unknown fields are an error.
func decodeSpec(data []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// TestPolicyJSON: wq_thr takes a number or "NO" (any case), a typo inside
// the policy object is rejected although PolicyConfig decodes itself, and
// strict_backfill reaches the policy.
func TestPolicyJSON(t *testing.T) {
	for _, tc := range []struct {
		body string
		want PolicyConfig
	}{
		{`{"bsld_thr": 2, "wq_thr": 4}`, PolicyConfig{BSLDThr: 2, WQThr: 4}},
		{`{"bsld_thr": 2, "wq_thr": "NO"}`, PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit}},
		{`{"bsld_thr": 2, "wq_thr": "no"}`, PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit}},
		{`{"bsld_thr": 2, "wq_thr": 2147483647}`, PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit}},
		{`{"bsld_thr": 2, "wq_thr": null}`, PolicyConfig{BSLDThr: 2}},
		{`{"bsld_thr": 3}`, PolicyConfig{BSLDThr: 3}},
		{`{"bsld_thr": 2, "wq_thr": "NO", "strict_backfill": true, "boost": true, "boost_wq": 8}`,
			PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit, StrictBackfill: true, Boost: true, BoostWQ: 8}},
	} {
		spec, err := decodeSpec([]byte(`{"workload": "CTC", "policy": ` + tc.body + `}`))
		if err != nil {
			t.Errorf("%s: %v", tc.body, err)
			continue
		}
		if spec.Policy != tc.want {
			t.Errorf("%s: decoded %+v, want %+v", tc.body, spec.Policy, tc.want)
		}
	}
	for body, substr := range map[string]string{
		`{"bsld_thr": 2, "wq_thr": "none"}`:   `wq_thr must be a number or "NO"`,
		`{"bsld_thr": 2, "wq_thr": 1.5}`:      `wq_thr must be a number or "NO"`,
		`{"bsld_thr": 2, "wq_thr": [1]}`:      `wq_thr must be a number or "NO"`,
		`{"bsld_thr": 2, "strict": true}`:     "unknown field",
		`{"bsld_thr": 2, "wq_threshold": 16}`: "unknown field",
		`{"bsld_thr": "2"}`:                   "bsld_thr",
	} {
		_, err := decodeSpec([]byte(`{"workload": "CTC", "policy": ` + body + `}`))
		if err == nil || !strings.Contains(err.Error(), substr) {
			t.Errorf("%s: err = %v, want one mentioning %q", body, err, substr)
		}
	}
	if got := (PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit, StrictBackfill: true}).Label(); got != "2/NO+strict" {
		t.Errorf("Label = %q", got)
	}
}

// TestSpecJSONUnsetFieldsOmitted: a spec that sets none of the fields
// added to the wire schema encodes byte for byte as it did before they
// existed, so clients that marshal a Spec send unchanged bodies.
func TestSpecJSONUnsetFieldsOmitted(t *testing.T) {
	b, err := json.Marshal(Spec{
		Workload: "CTC", Jobs: 1000, SizeFactor: 1.25,
		Policy:     PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit},
		Controller: ControllerConfig{CapFrac: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"workload":"CTC","jobs":1000,"filter":{"DropFailed":false,"DropCanceled":false,"EcoUsers":""},"policy":{"bsld_thr":2,"wq_thr":2147483647},"controller":{"cap_frac":0.6},"size_factor":1.25}`
	if string(b) != want {
		t.Errorf("encoded\n%s\nwant\n%s", b, want)
	}
	back, err := decodeSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Policy.WQThr != core.NoWQLimit || back.PowerModel != nil {
		t.Errorf("round trip lost the policy or grew a power model: %+v", back)
	}
}

// FuzzSpecJSON decodes arbitrary bytes as a wire spec, compiles them and
// executes the small named presets among them: every input ends in an
// error or a result, never a panic. .swf names (server-local files) and
// preset lengths outside 1–300 are not compiled; negative lengths are,
// since the compiler must reject them.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{"workload": "CTC", "jobs": 100, "policy": {"bsld_thr": 2, "wq_thr": 16}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(data)
		if err != nil || strings.HasSuffix(spec.Workload, ".swf") || spec.Jobs == 0 || spec.Jobs > 300 {
			return
		}
		sc, err := Compile(spec)
		if err != nil {
			return
		}
		if spec.Jobs < 0 {
			t.Fatalf("compiled a negative job count: %s", data)
		}
		out, err := sc.Execute()
		if err == nil && out.CPUs != sc.CPUs() {
			t.Fatalf("executed on %d CPUs, compiled for %d", out.CPUs, sc.CPUs())
		}
	})
}
