package cache

import "fmt"

// CheckGhosts validates that ARC's ghost map holds exactly the nodes of B1
// and B2, each under its own key and list.
func (a *ARC) CheckGhosts() error {
	return checkGhosts(a.ghosts, map[uint64]*arcList{inB1: &a.b1, inB2: &a.b2})
}

// CheckGhosts validates that 2Q's ghost map holds exactly the nodes of A1out.
func (q *TwoQ) CheckGhosts() error {
	return checkGhosts(q.ghosts, map[uint64]*arcList{inA1out: &q.a1out})
}

// checkGhosts checks every ghost list's nodes against ghosts and the list's
// byte count against its nodes.
func checkGhosts(ghosts map[string]*Node, lists map[uint64]*arcList) error {
	count := 0
	for where, l := range lists {
		var bytes int64
		for n := l.Front(); n != nil; n = n.Next() {
			count++
			bytes += n.Size
			if ghosts[n.Key] != n {
				return fmt.Errorf("ghost %q is queued but not mapped", n.Key)
			}
			if n.Aux != where {
				return fmt.Errorf("ghost %q in list %d records list %d", n.Key, where, n.Aux)
			}
		}
		if bytes != l.bytes {
			return fmt.Errorf("ghost list %d holds %d bytes, counts %d", where, bytes, l.bytes)
		}
	}
	if count != len(ghosts) {
		return fmt.Errorf("ghost lists hold %d keys, the map %d", count, len(ghosts))
	}
	return nil
}
