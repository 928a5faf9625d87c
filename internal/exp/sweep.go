package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"

	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/store"
)

// Sweep is the plain-data description of one experiment sweep: the
// families to render (the cmexp catalogue, aliases and the static
// "schedules" listing included), a cell-key regexp selecting the cells
// to run, the seed perturbation, and the output format (text, json or
// csv; empty means text). It is the JSON body of cmserve's POST
// /v1/sweep, and cmexp fills one from its arguments, so both front
// ends validate, run and render a sweep alike and print the same bytes.
type Sweep struct {
	Experiments []string `json:"experiments"`
	Run         string   `json:"run,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	Format      string   `json:"format,omitempty"`
}

// DecodeSweep reads exactly one JSON sweep from r. Unknown fields and
// anything but whitespace after the object are errors, so a typo or a
// second sweep is rejected rather than silently ignored.
func DecodeSweep(r io.Reader) (Sweep, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Sweep
	if err := dec.Decode(&s); err != nil {
		return Sweep{}, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return Sweep{}, errors.New("trailing data after the sweep")
	}
	return s, nil
}

// SweepPlan is a validated sweep, ready to run.
type SweepPlan struct {
	Specs    []*TableSpec // the requested families' tables, in print order
	Format   Format
	Selected int // cells the run pattern selects (all without one)

	filter    *regexp.Regexp
	seed      int64
	schedules bool // print the static listing first (text only)
	store     store.Backend
	cfg       network.Config
}

// Plan validates s and builds its specs: it expands the aliases,
// builds every family through FamilySpecsStore (st reaches the
// families that persist more than cell records), notes the static
// "schedules" listing, compiles the run pattern and rejects one that
// selects no cell. A non-nil override result replaces a family's
// canonical specs (cmexp's -procs/-maxsize reshape table5 this way).
func (s Sweep) Plan(cfg network.Config, st store.Backend, override func(name string) []*TableSpec) (*SweepPlan, error) {
	if len(s.Experiments) == 0 {
		return nil, fmt.Errorf("no experiments requested (known: %s)", strings.Join(FamilyNames(), " "))
	}
	format, err := ParseFormat(s.Format)
	if err != nil {
		return nil, err
	}
	names, err := ExpandFamilies(s.Experiments)
	if err != nil {
		return nil, err
	}
	p := &SweepPlan{Format: format, seed: s.Seed, store: st, cfg: cfg}
	for _, name := range names {
		if name == "schedules" {
			p.schedules = true
			continue
		}
		var specs []*TableSpec
		if override != nil {
			specs = override(name)
		}
		if specs == nil {
			if specs, err = FamilySpecsStore(name, cfg, st); err != nil {
				return nil, err
			}
		}
		p.Specs = append(p.Specs, specs...)
	}
	if s.Run != "" {
		if p.filter, err = regexp.Compile(s.Run); err != nil {
			return nil, fmt.Errorf("bad run pattern: %w", err)
		}
	}
	for _, sp := range p.Specs {
		for _, c := range sp.Cells {
			if p.filter == nil || p.filter.MatchString(c.Key) {
				p.Selected++
			}
		}
	}
	if p.filter != nil && p.Selected == 0 {
		return nil, fmt.Errorf("run %q matches no cell of the selected experiments; "+
			"keys look like fig5/PEX/N32/256B and name the registry's algorithms (known: %s)",
			s.Run, strings.Join(sched.Names(), " "))
	}
	return p, nil
}

// Run runs the plan's selected cells on r and writes the rendering to
// w: the schedules listing when requested (text only), then the tables
// through WriteTables. The caller configures r's pool, progress,
// metrics, lease and timelines; Run sets its Seed and Filter, and its
// Store and StoreBase when the plan has a store.
func (p *SweepPlan) Run(ctx context.Context, r *Runner, w io.Writer) error {
	r.Seed, r.Filter = p.seed, p.filter
	if p.store != nil {
		r.Store, r.StoreBase = p.store, StoreBase(p.cfg)
	}
	if p.schedules && p.Format == FormatText {
		if _, err := fmt.Fprintln(w, ScheduleTables()); err != nil {
			return err
		}
	}
	if err := r.Run(ctx, p.Specs...); err != nil {
		return err
	}
	tables := make([]*Table, len(p.Specs))
	for i, sp := range p.Specs {
		tables[i] = sp.Table
	}
	return WriteTables(w, p.Format, tables)
}
