package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/cm5"
)

// The pins hold the expected outputs for seed 1: every job of
// exchange-ladder and irregular-mix, and the rendered tables of
// sweep-store. Ladder jobs and the sweep tables do not depend on the
// seed, so their pins hold for every seed. The short file pins the
// test-scale inputs. Regenerate both with
//
//	go test -run TestUpdatePins -update
//
// LinkUtilization and LevelUtilization are not pinned: DataNet sums
// per-link carried bytes in map order, so their low bits drift between
// identical runs.
var (
	//go:embed testdata/pins_seed1.json
	pinsFile []byte
	//go:embed testdata/pins_seed1_short.json
	pinsShortFile []byte
)

type jobPin struct {
	ElapsedNS int64 `json:"elapsed_ns"`
	Steps     int   `json:"steps"`
	Messages  int   `json:"messages"`
	Flows     int   `json:"flows"`
	WireBytes int64 `json:"wire_bytes"`
}

func pinOf(res cm5.Result) jobPin {
	return jobPin{ElapsedNS: int64(res.Elapsed), Steps: res.Steps, Messages: res.Messages,
		Flows: res.Flows, WireBytes: res.WireBytes}
}

type pins struct {
	Jobs map[string]jobPin `json:"jobs"`
	// TablesSHA256 is the SHA-256 of sweep-store's rendered tables: the
	// text cmexp prints for the same families.
	TablesSHA256 string `json:"tables_sha256"`
}

// The pin files are parsed once, so that set-up time does not include
// reading them.
var pinsFull, pinsShort = parsePins(pinsFile), parsePins(pinsShortFile)

// parsePins panics on a malformed file: the files are compiled in, so
// only an edit to them can make one unreadable.
func parsePins(data []byte) *pins {
	p := &pins{}
	if err := json.Unmarshal(data, p); err != nil {
		panic(fmt.Sprintf("bench: pin file: %v", err))
	}
	return p
}

func pinsFor(short bool) *pins {
	if short {
		return pinsShort
	}
	return pinsFull
}
