package cm5_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/cm5"
)

// FuzzDecodeSpec: decoding and validating any job body never panics,
// and a spec Validate accepts survives a re-encode and decode
// unchanged, so the daemon's canonical echo of a job is the job. The
// corpus seeds are the job bodies the daemon's rejection tests send,
// plus a few valid ones.
func FuzzDecodeSpec(f *testing.F) {
	for _, body := range []string{
		// Valid jobs of every shape.
		`{"algorithm":"BEX","n":32,"bytes":1024}`,
		`{"algorithm":"REB","n":8,"bytes":64,"root":3}`,
		`{"algorithm":"GS","n":32,"bytes":256,"workload":"synthetic","density":0.25,"seed":7}`,
		`{"algorithm":"AS","n":64,"bytes":256,"workload":"butterfly","topology":"hypercube","fault_profile":"degrade","seed":64}`,
		`{"algorithm":"BS","n":8,"trace":"cg","topology":"hypercube","seed":1}`,
		`{"algorithm":"LEX","n":32,"bytes":1024,"async":true}`,
		// Malformed and rejected jobs.
		`{"algorithm"`,
		`{"algoritm":"BEX","n":8}`,
		`{"n":8,"bytes":64}`,
		`{"algorithm":"XEX","n":8}`,
		`{"algorithm":"BEX","n":31}`,
		`{"algorithm":"LEX","n":32768}`,
		`{"algorithm":"BEX","n":8,"bytes":-1}`,
		`{"algorithm":"GS","n":16}`,
		`{"algorithm":"GS","n":16,"workload":"nope"}`,
		`{"algorithm":"BEX","n":8,"workload":"transpose"}`,
		`{"algorithm":"GS","n":16,"workload":"synthetic","density":1.5}`,
		`{"algorithm":"GS","n":16,"workload":"transpose","density":0.5}`,
		`{"algorithm":"BEX","n":8,"topology":"mesh"}`,
		`{"algorithm":"BEX","n":32,"bytes":1024}{"algorithm":"LEX"}`,
		`{"algorithm":"BEX","n":32,"bytes":1024} x`,
		`{"algorithm":"BS","n":8,"trace":"bogus"}`,
		`{"algorithm":"PEX","n":8,"trace":"cg"}`,
		`{"algorithm":"BS","n":8,"trace":"cg","workload":"hotspot"}`,
		`{"algorithm":"BS","n":8,"trace":"cg","bytes":64}`,
		`{"algorithm":"BS","n":8,"workload":"hotspot","bytes":64,"trace_size":64}`,
		`{"algorithm":"BS","n":8,"trace":"cg","trace_size":-1}`,
		`{"algorithm":"BS","n":8,"trace":"fft","trace_size":1000000}`,
		`{"algorithm":"GS","n":8,"trace":"euler","trace_size":32769}`,
		`{"algorithm":"BS","n":8,"fault_profile":"meltdown"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := cm5.DecodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		if s.Validate() != nil {
			return
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-encoding a valid spec %+v: %v", s, err)
		}
		again, err := cm5.DecodeSpec(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("decoding re-encoded %s: %v", data, err)
		}
		if again != s {
			t.Fatalf("round trip changed the spec: %+v -> %s -> %+v", s, data, again)
		}
	})
}
