package serve

import (
	"bytes"
	"encoding/json"
	"net/http"

	"repro/cm5"
	"repro/internal/pattern"
	"repro/internal/trace"
)

// The daemon's five historical listing endpoints (/v1/algorithms,
// /v1/topologies, /v1/workloads, /v1/faultprofiles, /v1/traces) grew
// as five hand-rolled handlers with five slightly different JSON
// shapes. This file collapses them into one registry table: every
// listable name reduces to a uniform (name, kind, doc) row, served
// both through the uniform /v1/registry endpoints and through the
// historical paths — which remain byte-for-byte aliases, each
// rendering the same rows back into its original shape.

// listingEntry is the uniform registry row. Kind is the entry's
// subtype where the registry distinguishes one (algorithm kinds like
// "exchange" or "collective"); empty elsewhere.
type listingEntry struct {
	Name string `json:"name"`
	Kind string `json:"kind,omitempty"`
	Doc  string `json:"doc"`
}

// kv is one ordered JSON field of a legacy response object.
type kv struct {
	k string
	v any
}

// marshalOrdered renders fields as a JSON object preserving their
// order — the legacy shapes were struct-marshalled, so their field
// order is part of the pinned bytes and map marshalling (which sorts
// keys) cannot reproduce them.
func marshalOrdered(fields []kv) json.RawMessage {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, f := range fields {
		if i > 0 {
			buf.WriteByte(',')
		}
		k, _ := json.Marshal(f.k)
		v, _ := json.Marshal(f.v)
		buf.Write(k)
		buf.WriteByte(':')
		buf.Write(v)
	}
	buf.WriteByte('}')
	return buf.Bytes()
}

// registryDef describes one listable registry: where its rows come
// from, and how the historical endpoint shaped them.
type registryDef struct {
	kind     string // registry name, also the /v1/registry/{kind} segment
	path     string // historical endpoint, kept as a pinned alias
	wrapper  string // historical top-level key ("algorithms", "fault_profiles", "apps")
	docKey   string // historical doc field name: "doc" or "desc"
	withKind bool   // historical entries carried the subtype field

	entries func(s *Server) []listingEntry
	// entryExtras appends historical trailer fields the uniform shape
	// drops (traces' default_size).
	entryExtras func(e listingEntry) []kv
	// docExtras adds historical top-level fields next to the wrapper
	// (traces' trace_version and recorded).
	docExtras func(s *Server) map[string]any
}

// registries is the single source every listing route serves from.
var registries = []registryDef{
	{
		kind: "algorithms", path: "/v1/algorithms", wrapper: "algorithms",
		docKey: "doc", withKind: true,
		entries: func(*Server) []listingEntry {
			var list []listingEntry
			for _, a := range cm5.Algorithms() {
				list = append(list, listingEntry{Name: a.Name(), Kind: string(a.Kind()), Doc: a.Doc()})
			}
			return list
		},
	},
	{
		kind: "topologies", path: "/v1/topologies", wrapper: "topologies", docKey: "doc",
		entries: func(*Server) []listingEntry {
			var list []listingEntry
			for _, name := range cm5.Topologies() {
				list = append(list, listingEntry{Name: name, Doc: cm5.TopologyDoc(name)})
			}
			return list
		},
	},
	{
		kind: "workloads", path: "/v1/workloads", wrapper: "workloads", docKey: "desc",
		entries: func(*Server) []listingEntry {
			var list []listingEntry
			for _, wl := range pattern.Workloads() {
				list = append(list, listingEntry{Name: wl.Name, Doc: wl.Desc})
			}
			return append(list, listingEntry{
				Name: SyntheticWorkload,
				Doc:  "random pattern of the given density (the paper's Table 11 shape)",
			})
		},
	},
	{
		kind: "faultprofiles", path: "/v1/faultprofiles", wrapper: "fault_profiles", docKey: "doc",
		entries: func(*Server) []listingEntry {
			var list []listingEntry
			for _, name := range cm5.FaultProfiles() {
				list = append(list, listingEntry{Name: name, Doc: cm5.FaultProfileDoc(name)})
			}
			return list
		},
	},
	{
		kind: "traces", path: "/v1/traces", wrapper: "apps", docKey: "doc",
		entries: func(*Server) []listingEntry {
			var list []listingEntry
			for _, name := range cm5.Traces() {
				a, _ := trace.Lookup(name)
				list = append(list, listingEntry{Name: name, Doc: a.Doc})
			}
			return list
		},
		entryExtras: func(e listingEntry) []kv {
			a, _ := trace.Lookup(e.Name)
			return []kv{{"default_size", a.DefaultSize}}
		},
		docExtras: func(s *Server) map[string]any {
			doc := map[string]any{"trace_version": trace.TraceVersion}
			if s.store != nil {
				// The recordings this store already holds, addressable
				// without re-running anything. The index lists them
				// without reading a single payload.
				recorded := []json.RawMessage{}
				for _, e := range s.store.Index() {
					if e.Family == "trace" {
						recorded = append(recorded, marshalOrdered([]kv{{"cell", e.Cell}, {"hash", e.Hash}}))
					}
				}
				doc["recorded"] = recorded
			}
			return doc
		},
	},
}

// legacyEntry renders one uniform row back into reg's historical
// per-entry shape.
func (reg registryDef) legacyEntry(e listingEntry) json.RawMessage {
	fields := []kv{{"name", e.Name}}
	if reg.withKind {
		fields = append(fields, kv{"kind", e.Kind})
	}
	fields = append(fields, kv{reg.docKey, e.Doc})
	if reg.entryExtras != nil {
		fields = append(fields, reg.entryExtras(e)...)
	}
	return marshalOrdered(fields)
}

// handleLegacyListing serves one historical listing path from the
// registry table, byte-identical to the handler it replaced.
func (s *Server) handleLegacyListing(reg registryDef) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var list []json.RawMessage
		for _, e := range reg.entries(s) {
			list = append(list, reg.legacyEntry(e))
		}
		doc := map[string]any{reg.wrapper: list}
		if reg.docExtras != nil {
			for k, v := range reg.docExtras(s) {
				doc[k] = v
			}
		}
		writeJSON(w, doc)
	}
}

// handleRegistry serves every registry in the one uniform shape:
// {"registry":[{"kind":...,"entries":[{name,kind,doc}...]}...]}.
func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	type group struct {
		Kind    string         `json:"kind"`
		Entries []listingEntry `json:"entries"`
	}
	groups := make([]group, 0, len(registries))
	for _, reg := range registries {
		entries := reg.entries(s)
		if entries == nil {
			entries = []listingEntry{}
		}
		groups = append(groups, group{Kind: reg.kind, Entries: entries})
	}
	writeJSON(w, map[string]any{"registry": groups})
}

// handleRegistryKind serves one registry's uniform rows.
func (s *Server) handleRegistryKind(w http.ResponseWriter, r *http.Request) {
	kind := r.PathValue("kind")
	for _, reg := range registries {
		if reg.kind != kind {
			continue
		}
		entries := reg.entries(s)
		if entries == nil {
			entries = []listingEntry{}
		}
		writeJSON(w, map[string]any{"kind": reg.kind, "entries": entries})
		return
	}
	known := make([]string, 0, len(registries))
	for _, reg := range registries {
		known = append(known, reg.kind)
	}
	httpError(w, http.StatusNotFound, "unknown registry %q (known: %v)", kind, known)
}
