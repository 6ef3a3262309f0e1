// Package fixture exercises the lockorder analyzer: pairwise acquisition
// order inversions (direct and through call chains), re-acquisition
// self-deadlocks, and the allow-conc suppression path.
package fixture

import "sync"

var muA sync.Mutex
var muB sync.Mutex

// Shape 1: direct inversion — AB here, BA in OrderBA.
func OrderAB() {
	muA.Lock()
	muB.Lock() // want `lock order inversion: muB is acquired while muA is held`
	muB.Unlock()
	muA.Unlock()
}

func OrderBA() {
	muB.Lock()
	muA.Lock() // want `lock order inversion: muA is acquired while muB is held`
	muA.Unlock()
	muB.Unlock()
}

var muC sync.Mutex
var muD sync.Mutex

// Shape 2: interprocedural inversion — the C→D edge only exists through
// the call to lockD, so the witness names the chain.
func OrderCD() {
	muC.Lock()
	defer muC.Unlock()
	lockD() // want `lock order inversion: muD is acquired \(via lockD\) while muC is held`
}

func lockD() {
	muD.Lock()
	muD.Unlock()
}

func OrderDC() {
	muD.Lock()
	muC.Lock() // want `lock order inversion: muC is acquired while muD is held`
	muC.Unlock()
	muD.Unlock()
}

var muE sync.Mutex

// Shape 3: re-acquiring a lock that is provably held self-deadlocks —
// sync.Mutex is not reentrant.
func Reacquire() {
	muE.Lock()
	muE.Lock() // want `lock muE acquired while already held by Reacquire`
	muE.Unlock()
	muE.Unlock()
}

// A lock held on only one branch is may-held, not must-held: acquiring
// it after the join must not be reported as a re-acquisition.
func BranchHeld(cond bool) {
	if cond {
		muE.Lock()
		muE.Unlock()
	}
	muE.Lock()
	muE.Unlock()
}

// Releasing before the second acquisition is fine.
func LockUnlockLock() {
	muE.Lock()
	muE.Unlock()
	muE.Lock()
	muE.Unlock()
}

// Lock classes: a mutex field identifies one lock per declaring field,
// so two instances of Guarded still share an order with gmu.
type Guarded struct {
	mu sync.Mutex
	n  int
}

var gmu sync.Mutex

func (g *Guarded) FieldThenGlobal() {
	g.mu.Lock()
	gmu.Lock() // want `lock order inversion: gmu is acquired while Guarded.mu is held`
	gmu.Unlock()
	g.mu.Unlock()
}

func GlobalThenField(g *Guarded) {
	gmu.Lock()
	g.mu.Lock() // want `lock order inversion: Guarded.mu is acquired while gmu is held`
	g.mu.Unlock()
	gmu.Unlock()
}

var muF sync.Mutex
var muG sync.Mutex

// Suppression: the inversion against OrderGF is acknowledged with a
// reasoned allow-conc, so only the un-annotated side reports.
func OrderFG() {
	muF.Lock()
	muG.Lock() //iprune:allow-conc fixture: audited nested order
	muG.Unlock()
	muF.Unlock()
}

func OrderGF() {
	muG.Lock()
	muF.Lock() // want `lock order inversion: muF is acquired while muG is held`
	muF.Unlock()
	muG.Unlock()
}

// Consistent nesting everywhere is clean: H before I in both callers.
var muH sync.Mutex
var muI sync.Mutex

func NestedOK1() {
	muH.Lock()
	muI.Lock()
	muI.Unlock()
	muH.Unlock()
}

func NestedOK2() {
	muH.Lock()
	defer muH.Unlock()
	muI.Lock()
	defer muI.Unlock()
}

// TryLock cannot block, so it never creates an order edge.
func TryNoEdge() {
	muI.Lock()
	if muH.TryLock() {
		muH.Unlock()
	}
	muI.Unlock()
}

var muJ sync.Mutex

// Code after a return runs on no path: locking twice there is no
// re-acquisition.
func DeadRelock() {
	return
	muJ.Lock()
	muJ.Lock()
}
