//! `Zeroed` values spanning a huge page are an anonymous mapping: the
//! process's address space shows it advised onto huge pages while it
//! lives and loses it when it drops.  AddressSanitizer and
//! LeakSanitizer see no `mmap`, so this is the leak check of the mapped
//! path.  Alone in its binary: no other test maps or unmaps while it
//! reads `/proc/self/maps`.

use dlb_core::Zeroed;

/// The `/proc/self/smaps` entries overlapping `[lo, hi)`: each
/// mapping's range and its `VmFlags` line.
fn mappings_over(lo: usize, hi: usize) -> Vec<(usize, usize, String)> {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("smaps is readable");
    let mut out: Vec<(usize, usize, String)> = Vec::new();
    for line in smaps.lines() {
        let range = line.split(' ').next().and_then(|r| r.split_once('-'));
        let parsed = range.and_then(|(a, b)| {
            Some((
                usize::from_str_radix(a, 16).ok()?,
                usize::from_str_radix(b, 16).ok()?,
            ))
        });
        if let Some((start, end)) = parsed {
            out.push((start, end, String::new()));
        } else if let (Some(flags), Some(last)) = (line.strip_prefix("VmFlags:"), out.last_mut()) {
            last.2 = flags.to_string();
        }
    }
    out.retain(|&(start, end, _)| start < hi && lo < end);
    out
}

#[test]
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn a_dropped_mapping_leaves_the_address_space() {
    // Two huge pages of `u32`s and one value more: mapped.
    let len = (4 << 20) / 4 + 1;
    let mut values = Zeroed::<u32>::new(len);
    values[len - 1] = 7;
    let lo = values.as_ptr() as usize;
    let hi = lo + 4 * len;
    let live = mappings_over(lo, hi);
    assert!(
        live.iter().any(|&(start, end, _)| start <= lo && hi <= end),
        "one mapping holds the values: {live:?}"
    );
    // With THP in the kernel, the advice is on the mapping (`hg`).
    if std::path::Path::new("/sys/kernel/mm/transparent_hugepage").exists() {
        assert!(
            live.iter()
                .all(|(_, _, flags)| flags.split(' ').any(|f| f == "hg")),
            "advised onto huge pages: {live:?}"
        );
    }
    drop(values);
    assert_eq!(mappings_over(lo, hi), [], "unmapped on drop");
}
