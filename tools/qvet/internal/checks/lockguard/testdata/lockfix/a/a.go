// Package a seeds lockguard violations (leaked guards, nested Acquire,
// discarded guards, unguarded links) next to the correct patterns the
// engine actually uses, which must stay silent.
package a

import (
	"lockfix/areanode"
	"lockfix/locking"
)

// LockContext mirrors the engine's game.LockContext by name.
type LockContext struct {
	Locker *locking.RegionLocker
}

// World carries the tree and the lowercase link helpers.
type World struct {
	Tree areanode.Tree
}

func (w *World) link(it *areanode.Item)   { w.Tree.Link(it) }
func (w *World) unlink(it *areanode.Item) { w.Tree.Unlink(it) }

// --- seeded violations -------------------------------------------------

// LeakOnEarlyReturn forgets the guard on the error path.
func LeakOnEarlyReturn(rl *locking.RegionLocker, bad bool) int {
	g := rl.Acquire(1) // want "not released on the path reaching the return"
	if bad {
		return 0
	}
	g.Release()
	return 1
}

// LeakAtEnd never releases at all.
func LeakAtEnd(rl *locking.RegionLocker) {
	g := rl.Acquire(2) // want "not released on the path reaching the end of the function"
	_ = g.Covers(7)
}

// NestedAcquire holds one region while acquiring another.
func NestedAcquire(rl *locking.RegionLocker) {
	g := rl.Acquire(1)
	g2 := rl.Acquire(2) // want "still held"
	g2.Release()
	g.Release()
}

// NestedAcquireDeferred: a deferred release still holds the lock until
// return, so the second Acquire is just as illegal.
func NestedAcquireDeferred(rl *locking.RegionLocker) {
	g := rl.Acquire(1)
	defer g.Release()
	g2 := rl.Acquire(2) // want "deferred release"
	g2.Release()
}

// Discarded drops the guard on the floor.
func Discarded(rl *locking.RegionLocker) {
	rl.Acquire(3) // want "discarded"
}

// DiscardedBlank discards via the blank identifier.
func DiscardedBlank(rl *locking.RegionLocker) {
	_ = rl.Acquire(4) // want "discarded"
}

// LeakAcrossLoop re-acquires each iteration without releasing the
// previous guard: the second interpretation of the body catches the
// back-edge carry.
func LeakAcrossLoop(rl *locking.RegionLocker, n int) {
	var last locking.Guard
	for i := 0; i < n; i++ {
		last = rl.Acquire(i) // want "still held"
	}
	last.Release()
}

// BareLinkUnderContext uses the unguarded tree ops on a combat-style
// path that carries a LockContext.
func BareLinkUnderContext(w *World, it *areanode.Item, lc *LockContext) {
	w.Tree.Link(it)   // want "bare areanode.Link"
	w.Tree.Unlink(it) // want "bare areanode.Unlink"
}

// LowercaseLinkUnderContext calls the engine's unguarded helpers.
func LowercaseLinkUnderContext(w *World, it *areanode.Item, lc *LockContext) {
	w.link(it)   // want "unguarded link"
	w.unlink(it) // want "unguarded unlink"
}

// --- correct patterns: must stay silent --------------------------------

// DeferRelease is the spawn/remove pattern.
func DeferRelease(rl *locking.RegionLocker) {
	g := rl.Acquire(1)
	defer g.Release()
}

// ExplicitAllPaths releases on every exit, like ExecuteMove.
func ExplicitAllPaths(rl *locking.RegionLocker, early bool) int {
	g := rl.Acquire(1)
	if early {
		g.Release()
		return 0
	}
	g.Release()
	return 1
}

// DeferredClosureRelease is the fireRocket pattern: release inside a
// deferred closure that also does bookkeeping.
func DeferredClosureRelease(rl *locking.RegionLocker) {
	g := rl.Acquire(1)
	defer func() {
		g.Release()
	}()
}

// SequentialReacquire releases before acquiring the next region — the
// release-then-fire pattern of the weapon paths.
func SequentialReacquire(rl *locking.RegionLocker) {
	g := rl.Acquire(1)
	g.Release()
	g2 := rl.Acquire(2)
	g2.Release()
}

// TransferOut returns the guard: ownership moves to the caller, as in
// LockContext.acquire wrapping RegionLocker.Acquire.
func TransferOut(rl *locking.RegionLocker) locking.Guard {
	g := rl.Acquire(1)
	return g
}

// PassToHelper hands the guard to another function, which then owns it.
func PassToHelper(rl *locking.RegionLocker) {
	g := rl.Acquire(1)
	releaseLater(g)
}

func releaseLater(g locking.Guard) { g.Release() }

// PanicPath may panic while holding: the engine's recovery handler
// calls ReleaseAll, so lockguard exempts panic exits.
func PanicPath(rl *locking.RegionLocker, bad bool) {
	g := rl.Acquire(1)
	if bad {
		panic("contained by recoverWorker")
	}
	g.Release()
}

// LoopAcquireRelease acquires and releases within each iteration.
func LoopAcquireRelease(rl *locking.RegionLocker, n int) {
	for i := 0; i < n; i++ {
		g := rl.Acquire(i)
		g.Release()
	}
}

// GuardedLinksUnderContext is the legal exec-path pattern.
func GuardedLinksUnderContext(w *World, it *areanode.Item, lc *LockContext) {
	w.Tree.LinkGuarded(it, nil)
	w.Tree.UnlinkGuarded(it, nil)
}

// PhysicsPlainLinks is master-only lock-free phase code: bare links are
// legal there even though a LockContext parameter is in scope.
//
//qvet:phase=physics
func PhysicsPlainLinks(w *World, it *areanode.Item, lc *LockContext) {
	w.Tree.Link(it)
	w.link(it)
}

// --- labeled branches --------------------------------------------------

// LeakThroughLabeledBreak leaves both loops from the inner one: the
// guard acquired in the outer body never reaches its Release.
func LeakThroughLabeledBreak(rl *locking.RegionLocker, n int) {
outer:
	for i := 0; i < n; i++ {
		g := rl.Acquire(i) // want "not released"
		for j := 0; j < n; j++ {
			if j == i {
				break outer
			}
		}
		g.Release()
	}
}

// LeakThroughLabeledContinue skips the Release by continuing the outer
// loop: the guard reaches the next iteration's Acquire still held, and
// the loop exit still holding it.
func LeakThroughLabeledContinue(rl *locking.RegionLocker, n int) {
outer:
	for i := 0; i < n; i++ {
		g := rl.Acquire(i) // want "still held" "not released"
		for j := 0; j < n; j++ {
			if j == i {
				continue outer
			}
		}
		g.Release()
	}
}
