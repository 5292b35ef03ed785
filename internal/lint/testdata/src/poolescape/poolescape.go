// Package poolescape holds poolescape's cases, built around faithful
// reconstructions of the PR 5 evaluation-kernel workspace pool (the
// wsPool.get accessor and the solver's eval closure) and the PR 6
// ingest delta-buffer pool, plus the escape shapes the analyzer must
// refuse: field/global stores, channel sends, goroutine captures, and
// return paths that skip the Put.
package poolescape

import "sync"

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getNoAnnot reconstructs the PR 5 accessor before it carried the
// contract marker: it hands out the borrow with no annotation, so the
// analyzer sees an unreleased Get and an escaping return.
func getNoAnnot() *[]byte {
	b := bufPool.Get().(*[]byte) // want "never returned to the pool"
	return b                     // want "returns a pooled value"
}

// getAnnot is the fixed form: the marker passes the contract on.
//
//tubelint:pooled
func getAnnot() *[]byte {
	return bufPool.Get().(*[]byte)
}

// useOK is the canonical borrow: the call site of a pooled accessor is
// a source, and the deferred Put releases on every path.
func useOK() int {
	b := getAnnot()
	defer bufPool.Put(b)
	return len(*b)
}

// earlyReturnLeak takes the Put only on the slow path; the quick return
// leaks the borrow and the pool degrades to an allocator.
func earlyReturnLeak(quick bool) int {
	b := bufPool.Get().(*[]byte)
	if quick {
		return 0 // want "leaks a pooled value"
	}
	bufPool.Put(b)
	return 1
}

type holder struct{ buf *[]byte }

var leaked *[]byte

// storeField parks the borrow in longer-lived state: the field outlives
// the borrowing call and races the pool's next Get.
func storeField(h *holder) {
	b := bufPool.Get().(*[]byte)
	h.buf = b // want "stored to a field"
	bufPool.Put(b)
}

func storeGlobal() {
	b := bufPool.Get().(*[]byte)
	leaked = b // want "stored to a global"
	bufPool.Put(b)
}

func sendChan(ch chan *[]byte) {
	b := bufPool.Get().(*[]byte)
	ch <- b // want "sent on a channel"
	bufPool.Put(b)
}

func goCapture(done chan struct{}) {
	b := bufPool.Get().(*[]byte)
	go func() { // want "goroutine captures a pooled value"
		_ = len(*b)
		close(done)
	}()
	bufPool.Put(b)
}

func goArg(sink func(*[]byte)) {
	b := bufPool.Get().(*[]byte)
	go sink(b) // want "passed to a goroutine"
	bufPool.Put(b)
}

// borrowNoContract returns the release closure without the marker: the
// borrow itself stays unreleased here and the capture escapes.
func borrowNoContract() func() {
	b := bufPool.Get().(*[]byte)     // want "never returned to the pool"
	return func() { bufPool.Put(b) } // want "returns a closure capturing a pooled value"
}

// borrow is the PR 6 getScratch idiom done right: annotated accessor
// returning the value plus its paired release closure.
//
//tubelint:pooled
func borrow() ([]byte, func()) {
	bp := bufPool.Get().(*[]byte)
	return *bp, func() { bufPool.Put(bp) }
}

// gradientLike consumes the release-closure contract: both results of
// the pooled accessor are tracked, and deferring the put closure
// releases on every path.
func gradientLike() float64 {
	s, put := borrow()
	defer put()
	return float64(len(s))
}

// evalClosureOK reconstructs the PR 5 solver shape: the eval closure
// captures the workspace but only travels down the call stack into a
// synchronous minimizer, under a deferred Put. Legal.
func evalClosureOK(minimize func(func(float64) float64) float64) float64 {
	b := bufPool.Get().(*[]byte)
	defer bufPool.Put(b)
	eval := func(t float64) float64 { return t + float64(len(*b)) }
	return minimize(eval)
}

// allowedHandoff documents a deliberate ownership transfer.
func allowedHandoff(h *holder) {
	b := bufPool.Get().(*[]byte) //lint:allow poolescape holder assumes ownership and releases in Close
	//lint:allow poolescape ownership transfers to the holder by design
	h.buf = b
}
