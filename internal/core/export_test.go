package core

// LazyRow returns the published lazy-tier mask row of dst, nil before the
// first touch of its block (and always nil on the full tier).
func (a *GraphAdaptive) LazyRow(dst int32) *[]uint32 {
	if a.tab == nil || a.tab.rows == nil {
		return nil
	}
	return a.tab.rows[dst].Load()
}
