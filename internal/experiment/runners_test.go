package experiment

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/avr/asm"
	"repro/internal/image"
	"repro/internal/kernel"
)

// fillNode stops admitting only on kernel.ErrNoMemory; every other failure
// is returned instead of reading as a full node.
func TestFillNodeReturnsNonMemoryErrors(t *testing.T) {
	// 20k words of code and no heap: flash (64k words) overflows on the
	// fourth program, long before the application area is full.
	big := func(i int) (*image.Program, error) {
		return asm.Assemble(fmt.Sprintf("big%d", i), "main:\n"+strings.Repeat("    nop\n", 20_000)+"    break\n")
	}
	_, err := fillNode(kernel.Config{InitialStack: 64}, 1_000, big)
	if err == nil || errors.Is(err, kernel.ErrNoMemory) {
		t.Fatalf("flash overflow: err = %v, want a non-memory admission error", err)
	}
	if !strings.Contains(err.Error(), "flash overflow") {
		t.Errorf("err = %v, want the machine's flash overflow", err)
	}

	boom := errors.New("boom")
	_, err = fillNode(kernel.Config{}, 1_000, func(int) (*image.Program, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("builder error: err = %v, want %v", err, boom)
	}
}
