package lib

// Live is printed by the binary; fmt reaches String through fmt.Stringer.
type Live struct{}

func (Live) String() string { return "live" }

// Dead is called by nothing.
func Dead() {}

// TestOnly is called only by lib_test.go.
func TestOnly() int { return 1 }

var initialized bool

func initOnly() { initialized = true }

func init() { initOnly() }
