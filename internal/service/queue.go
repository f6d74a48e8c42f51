package service

import (
	"container/heap"
	"sync"
)

// batchQueue is the bounded priority queue feeding the worker pool.
// Ordering: job priority (high first), then submit order, then batch
// index — so a high-priority job overtakes queued work but jobs of equal
// priority run FIFO and a job's own batches stay in order.
//
// close switches the queue to drain mode: pushes are refused, pops keep
// returning queued batches until the queue is empty, then report ok=false
// so workers exit.
type batchQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  batchHeap
	cap    int
	closed bool
}

func newBatchQueue(capacity int) *batchQueue {
	q := &batchQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// tryPush enqueues all batches or none (a job is admitted atomically so
// backpressure cannot strand half a job).
func (q *batchQueue) tryPush(batches []*batch) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items)+len(batches) > q.cap {
		return false
	}
	for _, b := range batches {
		heap.Push(&q.items, b)
	}
	q.cond.Broadcast()
	return true
}

// pop blocks until a batch is available or the queue is closed and
// drained.
func (q *batchQueue) pop() (*batch, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	return heap.Pop(&q.items).(*batch), true
}

func (q *batchQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

func (q *batchQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// batchHeap implements container/heap ordering for batches.
type batchHeap []*batch

func (h batchHeap) Len() int { return len(h) }

func (h batchHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.job.Priority != b.job.Priority {
		return a.job.Priority > b.job.Priority
	}
	if a.job.seq != b.job.seq {
		return a.job.seq < b.job.seq
	}
	if a.req != b.req {
		return a.req < b.req
	}
	return a.index < b.index
}

func (h batchHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *batchHeap) Push(x any) { *h = append(*h, x.(*batch)) }

func (h *batchHeap) Pop() any {
	old := *h
	n := len(old)
	b := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return b
}
