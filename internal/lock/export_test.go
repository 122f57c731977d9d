package lock

// residentState reports the total lock-table states and grants across all
// shards, for leak checks in tests.
func (m *Manager) residentState() (resources, holders int) {
	for _, s := range m.shards {
		s.mu.Lock()
		for _, ls := range s.table {
			for ; ls != nil; ls = ls.next {
				resources++
				for g := ls.holders; g != nil; g = g.nextHolder {
					holders++
				}
			}
		}
		s.mu.Unlock()
	}
	return
}
