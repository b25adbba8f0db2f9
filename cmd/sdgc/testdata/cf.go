// Alg. 1 of the paper as annotated Go source, built into sdgc as
// `-program cf`. testdata is excluded from builds; Matrix and the merge
// functions are resolved by the translator.
package cf

//sdg:state partitioned
var userItem Matrix

//sdg:state partial
var coOcc Matrix

func addRating(user, item, rating int) {
	userItem.Set(user, item, rating)
	userRow := userItem.Row(user)
	for i, r := range userRow {
		if r > 0 {
			if i != item {
				coOcc.Add(item, i, 1)
				coOcc.Add(i, item, 1)
			}
		}
	}
}

func getRec(user int) {
	userRow := userItem.Row(user)
	//sdg:partial
	userRec := coOcc.GlobalMulvec(userRow)
	rec := sumVectors(userRec)
	return rec
}
