package checkpoint

import "fmt"

// DamageSweep is the test every snapshot rig runs against its load path:
// snap must load, and for every offset of it, snap cut short there must
// end in an error and snap with that byte overwritten (0xFF) in an error
// or a completed load. What it is there to provoke is what load does on
// the way — a panic, or a loop or an allocation sized by a damaged count —
// so load must pour buf into a freshly built object each time.
func DamageSweep(snap []byte, load func(buf []byte) error) error {
	if err := load(snap); err != nil {
		return fmt.Errorf("the undamaged snapshot does not load: %w", err)
	}
	for off := range snap {
		if load(snap[:off]) == nil {
			return fmt.Errorf("snapshot truncated at %d of %d bytes loaded without an error", off, len(snap))
		}
		damaged := append([]byte(nil), snap...)
		damaged[off] = 0xFF
		load(damaged)
	}
	return nil
}
