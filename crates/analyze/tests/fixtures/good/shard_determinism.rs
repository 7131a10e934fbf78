//! Fixture: deterministic shard merges — results land in slots indexed
//! by their *task* order, so completion order cannot reorder the merge.

/// The engine pool discipline: every result carries its submission
/// index and fills a pre-sized slot.
pub fn merge_by_slot(rx: std::sync::mpsc::Receiver<(usize, u64)>, n: usize) -> Vec<Option<u64>> {
    let mut slots: Vec<Option<u64>> = (0..n).map(|_| None).collect();
    while let Ok((index, r)) = rx.recv() {
        if let Some(slot) = slots.get_mut(index) {
            *slot = Some(r);
        }
    }
    slots
}

/// Joining scoped threads in spawn order is task order by construction.
pub fn merge_by_join(handles: Vec<std::thread::JoinHandle<u64>>) -> Vec<u64> {
    handles.into_iter().filter_map(|h| h.join().ok()).collect()
}

/// Pushing inside an ordinary counted loop has nothing to do with
/// channel arrival and stays clean.
pub fn build_ranges(n: usize) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    for shard in 0..n {
        ranges.push(shard..shard + 1);
    }
    ranges
}
