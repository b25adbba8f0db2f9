// A minimal partitioned dictionary class, built into sdgc as -program dict.
package dict

//sdg:state partitioned
var store KVMap

func put(k, v int) {
	store.Put(k, v)
	return true
}

func get(k int) {
	v := store.Get(k)
	return v
}
