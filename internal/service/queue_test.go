package service

import "testing"

func testJob(seq int64, prio Priority) *jobRun {
	return &jobRun{Batch: &Batch{Priority: prio}, seq: seq}
}

func TestQueueOrdering(t *testing.T) {
	q := newBatchQueue(16)
	low := testJob(1, PriorityLow)
	norm := testJob(2, PriorityNormal)
	high := testJob(3, PriorityHigh)
	// Pushed in submit order: low job first, high job last.
	q.tryPush([]*batch{{job: low, index: 0}, {job: low, index: 1}})
	q.tryPush([]*batch{{job: norm, index: 0}})
	q.tryPush([]*batch{{job: high, index: 0}, {job: high, index: 1}})

	want := []*jobRun{high, high, norm, low, low}
	var wantIdx = []int{0, 1, 0, 0, 1}
	for i, wj := range want {
		b, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue empty", i)
		}
		if b.job != wj || b.index != wantIdx[i] {
			t.Fatalf("pop %d: job seq %d batch %d", i, b.job.seq, b.index)
		}
	}
	if q.depth() != 0 {
		t.Fatalf("depth = %d", q.depth())
	}
}

func TestQueueCapacityAllOrNothing(t *testing.T) {
	q := newBatchQueue(3)
	j := testJob(1, PriorityNormal)
	if !q.tryPush([]*batch{{job: j, index: 0}, {job: j, index: 1}}) {
		t.Fatal("fitting push refused")
	}
	// Two more batches would exceed the bound: nothing is admitted.
	if q.tryPush([]*batch{{job: j, index: 2}, {job: j, index: 3}}) {
		t.Fatal("overflow push accepted")
	}
	if q.depth() != 2 {
		t.Fatalf("depth = %d after refused push, want 2", q.depth())
	}
}

func TestQueueDrainClose(t *testing.T) {
	q := newBatchQueue(4)
	j := testJob(1, PriorityNormal)
	q.tryPush([]*batch{{job: j, index: 0}})
	q.close()
	if q.tryPush([]*batch{{job: j, index: 1}}) {
		t.Fatal("push accepted after close")
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("queued batch lost on close")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop returned a batch from an empty closed queue")
	}
}
