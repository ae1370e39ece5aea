package sta

import (
	"sync"
	"weak"
)

// freeList hands released values out for reuse until the next garbage
// collection, which reclaims every value still on the list. It pools
// transient working memory like a sync.Pool, but nothing on it survives
// a collection (a sync.Pool's victim cache keeps its values through
// one), so a finished job's propagation memory never counts as live.
type freeList[T any] struct {
	mu   sync.Mutex
	free []weak.Pointer[T]
}

// get returns a released value that is still alive, or nil.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for n := len(l.free); n > 0; n-- {
		v := l.free[n-1].Value()
		l.free = l.free[:n-1]
		if v != nil {
			return v
		}
	}
	return nil
}

// put releases v for reuse.
func (l *freeList[T]) put(v *T) {
	l.mu.Lock()
	l.free = append(l.free, weak.Make(v))
	l.mu.Unlock()
}
