package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/network"
)

// TestFamilyRenderingsPinned pins the SHA-256 of the text rendering
// (cmexp's stdout for the one family) of the families no bench sweep
// pin covers, so a change to how their cells build and run jobs has to
// keep every printed byte. fig6-fig8 sweep up to N=256 and are skipped
// under -short.
func TestFamilyRenderingsPinned(t *testing.T) {
	cases := []struct {
		family string
		sha    string
		long   bool
	}{
		{"collectives", "965b17c4b03be32694e9095ef48ca73c855ce6dad3a6c90bb11c92051b6fa3f1", false},
		{"faults", "cd382a1dd39a98e5c8984eb4468c98fff5ee6e05791a36299b7e78be14cc5cd5", false},
		{"fig6", "a8d5f6386244b5b4c88b030c2c9f69d24261c0868b6f147562606c08a1c55260", true},
		{"fig7", "a38b78b19ca6f200e67692f8833640736f349c09b9f34b83d25ede2557e334e8", true},
		{"fig8", "538d34dfc42bc1c2d01a13d69f724e44155ae24b3d8cf8aa49e6f869358dd759", true},
	}
	for _, tc := range cases {
		t.Run(tc.family, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("machine-size sweep to N=256; skipped under -short")
			}
			plan, err := Sweep{Experiments: []string{tc.family}}.Plan(network.DefaultConfig(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := plan.Run(context.Background(), NewRunner(0), &out); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("%s rendering SHA-256 = %s, want %s:\n%s", tc.family, got, tc.sha, out.String())
			}
		})
	}
}
