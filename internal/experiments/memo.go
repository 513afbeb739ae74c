package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// memo is one claim-once layer of the Cache: a map from canonical key to an
// entry that is computed (or imported) exactly once. Concurrent requests for
// an in-flight key block on the entry until its claimant fills it, bounded by
// the waiter's context so a claimant that died elsewhere (e.g. a lost
// distributed worker) cannot wedge them.
type memo[V any] struct {
	what string // names the kind in wait errors ("sweep point", ...)

	mu      sync.Mutex
	entries map[string]*memoEntry[V]

	hits   atomic.Int64
	misses atomic.Int64
}

// memoEntry is one memoized value. done is closed once v/err are final.
type memoEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

func newMemo[V any](what string) *memo[V] {
	return &memo[V]{what: what, entries: make(map[string]*memoEntry[V])}
}

// fill publishes the entry's result and releases its waiters.
func (e *memoEntry[V]) fill(v V, err error) {
	e.v, e.err = v, err
	close(e.done)
}

// filled reports whether the entry's result is final.
func (e *memoEntry[V]) filled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// lookup returns key's entry, creating an unfilled one if the key is new.
func (m *memo[V]) lookup(key string) (e *memoEntry[V], created bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		return e, false
	}
	e = &memoEntry[V]{done: make(chan struct{})}
	m.entries[key] = e
	return e, true
}

// claim returns key's entry and whether the caller claimed it, counting a
// hit or a miss. A claimed entry MUST be filled by the caller; unclaimed
// entries are filled — now or eventually — by whoever claimed them.
func (m *memo[V]) claim(key string) (*memoEntry[V], bool) {
	e, claimed := m.lookup(key)
	if claimed {
		m.misses.Add(1)
	} else {
		m.hits.Add(1)
	}
	return e, claimed
}

// wait blocks until e is filled or ctx ends. A filled entry always wins the
// race: the unconditional first check makes an expired context irrelevant
// for results that are already available.
func (m *memo[V]) wait(ctx context.Context, e *memoEntry[V]) (V, error) {
	if e.filled() {
		return e.v, e.err
	}
	select {
	case <-e.done:
		return e.v, e.err
	case <-ctx.Done():
		var zero V
		return zero, fmt.Errorf("experiments: waiting for in-flight %s: %w", m.what, ctx.Err())
	}
}

// put installs an externally computed value under key. Values are pure
// functions of their keys, so a key that is already resolved or in flight is
// left as it is: the existing entry is identical by construction. put reports
// whether it installed v.
func (m *memo[V]) put(key string, v V) bool {
	e, created := m.lookup(key)
	if created {
		e.fill(v, nil)
	}
	return created
}

// resolved returns the successfully filled entries' values by key.
func (m *memo[V]) resolved() map[string]V {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]V, len(m.entries))
	for k, e := range m.entries {
		if e.filled() && e.err == nil {
			out[k] = e.v
		}
	}
	return out
}

// get returns key's value if its entry is filled without error.
func (m *memo[V]) get(key string) (V, bool) {
	m.mu.Lock()
	e, ok := m.entries[key]
	m.mu.Unlock()
	if !ok || !e.filled() || e.err != nil {
		var zero V
		return zero, false
	}
	return e.v, true
}

// len returns the number of keys held, in flight or resolved.
func (m *memo[V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
