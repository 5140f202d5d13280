// Fixture: a second fetch loop outside the bounded executor — looking up
// constraint-index buckets directly, key by key and in bulk.
fn fetch_capped(index: &ConstraintIndex, keys: &[Vec<Value>], max_keys: usize) -> u64 {
    let mut accessed = 0;
    for key in keys.iter().take(max_keys) {
        accessed += index.fetch(key).len() as u64;
    }
    accessed
}

fn fetch_all(index: &ConstraintIndex, keys: &[Vec<Value>]) -> u64 {
    let (_, accessed) = index.fetch_buckets(keys.iter().map(|k| k.as_slice()));
    accessed
}
