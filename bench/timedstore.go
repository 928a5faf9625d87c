package main

import (
	"regexp"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// storeHook observes one record operation of a timedStore: op is "get",
// "put", "flush" or "invalidate"; hash is empty for the last two.
type storeHook func(op, hash string, start, end time.Time)

// timedStore is the benchmark's store.Backend: the disk store, with the
// host time of every record operation handed to a hook. It is how the
// benchmark sees store cost inside exp.Runner and the daemon without
// changing either; with no hook set it only delegates.
type timedStore struct {
	*store.Store
	hook atomic.Pointer[storeHook]
}

func openTimedStore(dir string) (*timedStore, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &timedStore{Store: st}, nil
}

// setHook replaces the hook. Operations already running may still
// report to the old one.
func (t *timedStore) setHook(h storeHook) { t.hook.Store(&h) }

func (t *timedStore) observe(op, hash string, start time.Time) {
	if h := t.hook.Load(); h != nil {
		(*h)(op, hash, start, time.Now())
	}
}

func (t *timedStore) Get(hash string) (*store.Record, bool, error) {
	start := time.Now()
	rec, ok, err := t.Store.Get(hash)
	t.observe("get", hash, start)
	return rec, ok, err
}

func (t *timedStore) Put(rec *store.Record) error {
	start := time.Now()
	err := t.Store.Put(rec)
	t.observe("put", rec.Hash, start)
	return err
}

func (t *timedStore) Flush() error {
	start := time.Now()
	err := t.Store.Flush()
	t.observe("flush", "", start)
	return err
}

func (t *timedStore) Invalidate(re *regexp.Regexp) (int, error) {
	start := time.Now()
	n, err := t.Store.Invalidate(re)
	t.observe("invalidate", "", start)
	return n, err
}
