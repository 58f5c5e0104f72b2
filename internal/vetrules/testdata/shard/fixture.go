// Deliberately-red fixtures for the lockscope analyzer: blocking
// operations while a slot's RWMutex is held.
package shard

import (
	"log"
	"sync"
	"time"
)

type slot struct {
	mu   sync.RWMutex
	ch   chan int
	done chan struct{}
}

func (sl *slot) sleepUnderLock() {
	sl.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding"
	sl.mu.Unlock()
}

func (sl *slot) sendUnderRLock() {
	sl.mu.RLock()
	sl.ch <- 1 // want "channel send"
	sl.mu.RUnlock()
}

func (sl *slot) logUnderLock() {
	sl.mu.Lock()
	log.Printf("mutating") // want "call into package log"
	sl.mu.Unlock()
}

func (sl *slot) selectUnderLock() {
	sl.mu.Lock()
	select { // want "select while holding"
	case <-sl.done:
	default:
	}
	sl.mu.Unlock()
}

// afterUnlock is clean: the lock is released before the sleep.
func (sl *slot) afterUnlock() {
	sl.mu.Lock()
	sl.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// earlyExit exercises the hole model: the early-exit branch is unlocked,
// the fallthrough path is not.
func (sl *slot) earlyExit(closed bool) {
	sl.mu.Lock()
	if closed {
		sl.mu.Unlock()
		<-sl.done // clean: inside the early-exit hole
		return
	}
	<-sl.done // want "channel receive"
	sl.mu.Unlock()
}

// spawn is clean: a nested func literal is its own scope (it may run on
// another goroutine, after the section ends).
func (sl *slot) spawn() func() {
	sl.mu.Lock()
	f := func() { time.Sleep(time.Millisecond) }
	sl.mu.Unlock()
	return f
}

// suppressed shows a reviewed exception with a reason.
func (sl *slot) suppressed() {
	sl.mu.Lock()
	//lockscope:ignore fixture-reviewed exception mirroring the real rotation case
	time.Sleep(time.Millisecond)
	sl.mu.Unlock()
}

// ignoreNoReason: an ignore without a reason does not suppress.
func (sl *slot) ignoreNoReason() {
	sl.mu.Lock()
	//lockscope:ignore
	time.Sleep(time.Millisecond) // want "time.Sleep while holding"
	sl.mu.Unlock()
}
