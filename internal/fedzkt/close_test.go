//go:build go1.24

package fedzkt

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"weak"
)

// TestClosedCoordinatorReleasesDeviceStores: the process-wide metrics
// registry keeps a closed federation's server reachable until the next
// one registers, so the server must not reach the coordinator. Close
// detaches the beforeWrite hook, whose closure would otherwise keep every
// device store alive — at any depth, since every coordinator installs it.
func TestClosedCoordinatorReleasesDeviceStores(t *testing.T) {
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			store := closedFleetStore(t, depth)
			runtime.GC()
			if store.Value() != nil {
				t.Error("a closed coordinator's device store is still reachable")
			}
		})
	}
}

// closedFleetStore runs a resident toy fleet at the given depth, closes
// it and returns a weak pointer to one of its device stores.
func closedFleetStore(t *testing.T, depth int) weak.Pointer[slotStore] {
	co := newToyFleet(t, 2, func(c *Config) { resident(c); c.PipelineDepth = depth })
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	store := weak.Make(co.devStore["mlp"])
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	return store
}
