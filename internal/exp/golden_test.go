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
// keep every printed byte. table5 is pinned at 256x256 on both of its
// processor counts (cmexp -maxsize 256 table5), which keeps the FFT
// transpose's timings. fig6-fig8 sweep up to N=256 and table5 runs 256
// processors; they are skipped under -short.
func TestFamilyRenderingsPinned(t *testing.T) {
	cfg := network.DefaultConfig()
	table5 := func(string) []*TableSpec {
		return []*TableSpec{Table5Spec(32, 256, cfg), Table5Spec(256, 256, cfg)}
	}
	cases := []struct {
		family   string
		sha      string
		long     bool
		override func(name string) []*TableSpec
	}{
		{"collectives", "965b17c4b03be32694e9095ef48ca73c855ce6dad3a6c90bb11c92051b6fa3f1", false, nil},
		{"faults", "cd382a1dd39a98e5c8984eb4468c98fff5ee6e05791a36299b7e78be14cc5cd5", false, nil},
		{"fig6", "a8d5f6386244b5b4c88b030c2c9f69d24261c0868b6f147562606c08a1c55260", true, nil},
		{"fig7", "a38b78b19ca6f200e67692f8833640736f349c09b9f34b83d25ede2557e334e8", true, nil},
		{"fig8", "538d34dfc42bc1c2d01a13d69f724e44155ae24b3d8cf8aa49e6f869358dd759", true, nil},
		{"table5", "a53fa15dd54f8f6e963cef43ed19a544b668cc75e8b772f85c383e2e6befc5e6", true, table5},
	}
	for _, tc := range cases {
		t.Run(tc.family, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("runs N=256; skipped under -short")
			}
			plan, err := Sweep{Experiments: []string{tc.family}}.Plan(cfg, nil, tc.override)
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
