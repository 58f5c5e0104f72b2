// Deliberately-red fixtures for the lockscope analyzer in the wal shape:
// fsync under the log mutex, and the *Locked naming convention.
package wal

import (
	"os"
	"sync"
)

type Log struct {
	mu sync.Mutex
	f  *os.File
	wg sync.WaitGroup
}

func (l *Log) syncUnderLock() {
	l.mu.Lock()
	l.f.Sync() // want "fsync"
	l.mu.Unlock()
}

// rotateLocked holds l.mu by naming convention: the body is an implied
// write section even though no Lock call appears.
func (l *Log) rotateLocked() {
	l.f.Sync() // want "fsync"
}

// sealLocked is the suppressed counterpart of the real rotation case.
func (l *Log) sealLocked() {
	//lockscope:ignore sealing must sync before segment handoff, mirroring the real exception
	l.f.Sync()
}

func (l *Log) waitUnderLock() {
	l.mu.Lock()
	l.wg.Wait() // want "WaitGroup.Wait"
	l.mu.Unlock()
}

// syncOutside is clean: the fsync happens after the section closes.
func (l *Log) syncOutside() {
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	f.Sync()
}
