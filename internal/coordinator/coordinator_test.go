package coordinator

import (
	"context"
	"errors"
	"testing"

	"eqasm/internal/service"
	"eqasm/internal/wire"
)

// TestSubmitWireRejectedIsNil pins the error path of SubmitWire: a
// rejected batch comes back as a nil wire.Batch, not as an interface
// holding a nil *pending.
func TestSubmitWireRejectedIsNil(t *testing.T) {
	c, err := New(Config{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	req := wire.BatchRequest{Requests: []wire.Request{{Source: service.SmokePrograms()["bell"], Shots: 10}}}
	batch, err := c.SubmitWire(context.Background(), req)
	if !errors.Is(err, service.ErrClosed) {
		t.Fatalf("SubmitWire on a closed coordinator: err = %v, want %v", err, service.ErrClosed)
	}
	if batch != nil {
		t.Fatalf("SubmitWire on a closed coordinator returned batch %#v, want nil", batch)
	}
}
