package serve

import "testing"

// TestLRUCompareAndRemove pins the conditional drop the analysis path
// relies on: once an entry has been replaced under its key, a
// compare-and-remove naming the old value must leave the new one.
func TestLRUCompareAndRemove(t *testing.T) {
	c := newLRU(4, nil)
	old, replacement := new(int), new(int)
	c.add("k", old)
	c.add("k", replacement)
	if c.compareAndRemove("k", old) {
		t.Error("compareAndRemove of the replaced value reported a removal")
	}
	if v, ok := c.get("k"); !ok || v != any(replacement) {
		t.Fatalf("after compareAndRemove of the old value, get = %v, %v; want the replacement", v, ok)
	}
	if !c.compareAndRemove("k", replacement) {
		t.Error("compareAndRemove of the current value reported no removal")
	}
	if _, ok := c.get("k"); ok || c.len() != 0 {
		t.Errorf("entry survived compareAndRemove of its current value (len %d)", c.len())
	}
	if c.compareAndRemove("absent", old) {
		t.Error("compareAndRemove of an absent key reported a removal")
	}
}
