// Package fabric is the distributed census fabric: a lease-based
// coordinator that fans a census campaign out to HTTP workers, with
// the census store as the durable ledger.
//
// The campaign domain — raw enumeration indices [0, CensusSize(n)) —
// is partitioned into contiguous work units. In orbit mode the unit
// boundaries land on canonical-representative starts, so every unit
// carries the same number of ranks (real work) regardless of how the
// canonical sequence clusters; in full mode units are fixed-size raw
// ranges. Units are disjoint and cover the domain, so the shards
// workers upload merge into exactly the store a single-node sweep of
// the same configuration would build, byte for byte.
//
// The coordinator (Coordinator, `factool coordinate`) serves a
// v1-style lease protocol built on the shared internal/api kit:
//
//	POST /v1/leases                acquire: {"worker":W,"ttl_sec":T}
//	POST /v1/leases/{id}/renew     heartbeat under long solves
//	POST /v1/leases/{id}/complete  gzip shard upload -> store merge
//	POST /v1/leases/{id}/release   graceful hand-back (SIGINT)
//	GET  /v1/fabric/status         campaign progress + workers
//	GET  /healthz /readyz /metrics probes and Prometheus exposition
//
// Expired leases requeue their unit; lease records are kept for the
// life of the process, so a late completion from an expired lease
// still folds in through the conflict-checked Merge — double-completed
// units are self-checking byte-for-byte, and any disagreement is a
// 409, never a silent overwrite. On restart the coordinator recovers
// the ledger from the store itself: one range walk counts the entries
// resident in each unit, and fully-covered units never lease again.
//
// The worker (Work, `factool work`) loops acquire → rank-range sweep
// (census.SweepRange over the existing orbit block producer) →
// gzip-upload → re-acquire, renewing under long solves, backing off
// across coordinator outages, and releasing its lease on a graceful
// stop.
package fabric

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/tasks"
)

// Campaign is the sweep configuration a coordinator distributes. It
// must match the store's kind (a solve-mode orbit store only accepts
// solve-mode orbit shards) and task spec — NewCoordinator checks, and
// the merge's kind guards backstop.
type Campaign struct {
	N      int  `json:"n"`
	Orbits bool `json:"orbits"`
	Solve  bool `json:"solve,omitempty"`

	// Task is the canonical spec of the task a solve campaign decides.
	// Normalize derives it ("kset:k=1" when empty); workers sweep
	// exactly this spec, so shards from every worker agree byte-wise.
	Task      string `json:"task,omitempty"`
	MaxRounds int    `json:"max_rounds,omitempty"`
}

// normalize validates and defaults the campaign in place.
func (c *Campaign) normalize() error {
	if c.N < 1 || c.N > 6 {
		return fmt.Errorf("fabric: n must be in [1,6], got %d", c.N)
	}
	if c.Solve {
		if c.Task == "" {
			c.Task = tasks.KSetSpec(1).String()
		}
		spec, err := tasks.ParseSpec(c.Task)
		if err != nil {
			return fmt.Errorf("fabric: %w", err)
		}
		c.Task = spec.String()
		if c.MaxRounds <= 0 {
			c.MaxRounds = 1
		}
	} else {
		c.Task, c.MaxRounds = "", 0
	}
	return nil
}

// Unit is one work unit: the raw index range [Lo, Hi) and the number
// of entries a complete sweep of it emits (canonical representatives
// in orbit mode, Hi-Lo in full mode).
type Unit struct {
	ID    int    `json:"id"`
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Ranks uint64 `json:"ranks"`
}

// PartitionUnits slices the campaign domain into contiguous disjoint
// units covering [0, CensusSize(n)). unitSize is the number of
// canonical ranks per unit in orbit mode (one stabilizer-aware walk of
// the canonical sequence places each boundary on a representative's
// raw index) and the number of raw indices per unit in full mode.
func PartitionUnits(c Campaign, unitSize uint64) ([]Unit, error) {
	if err := c.normalize(); err != nil {
		return nil, err
	}
	if unitSize == 0 {
		return nil, fmt.Errorf("fabric: unit size must be positive")
	}
	domain := adversary.CensusSize(c.N)
	var units []Unit
	if !c.Orbits {
		for lo := uint64(0); lo < domain; lo += unitSize {
			hi := lo + unitSize
			if hi > domain {
				hi = domain
			}
			units = append(units, Unit{ID: len(units), Lo: lo, Hi: hi, Ranks: hi - lo})
		}
		return units, nil
	}
	// Orbit mode: close a unit when it holds unitSize representatives,
	// at the raw index of the next representative — so boundaries are
	// exact representative starts and every raw index (canonical or
	// not) lands in exactly one unit. The final unit absorbs the
	// non-canonical tail up to the domain end.
	o := adversary.NewOrbits(c.N)
	cur := Unit{}
	o.ForEachCanonicalFrom(0, func(idx, size uint64) bool {
		if cur.Ranks == unitSize {
			cur.Hi = idx
			cur.ID = len(units)
			units = append(units, cur)
			cur = Unit{Lo: idx}
		}
		cur.Ranks++
		return true
	})
	if cur.Ranks > 0 {
		cur.Hi = domain
		cur.ID = len(units)
		units = append(units, cur)
	}
	return units, nil
}
