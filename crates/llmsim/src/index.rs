//! One-pass prompt identification: which of a fixed list of problem
//! descriptions does a prompt embed?
//!
//! Every description of at least [`WINDOW`] bytes is bucketed under its
//! first `WINDOW` bytes. Identifying a prompt slides a `WINDOW`-byte
//! window over it once and, wherever the window hits a bucket, checks the
//! bucket's descriptions against the prompt at that position — so the
//! cost follows the prompt's length, not the number of descriptions.
//! The few descriptions shorter than the window are checked with
//! `str::contains`.

use std::cmp::Reverse;
use std::collections::HashMap;

/// Bytes of each description used as its bucket key.
const WINDOW: usize = 16;

/// A window's bytes as a bucket key.
fn key(window: &[u8]) -> u128 {
    u128::from_le_bytes(window.try_into().expect("window is WINDOW bytes"))
}

/// Finds the longest description a prompt contains.
///
/// Entries are numbered by their position in the list the index was built
/// from. Empty descriptions never match. Among contained descriptions the
/// longest wins, and equal lengths go to the lowest entry.
pub(crate) struct DescriptionIndex {
    /// Description text per entry.
    descriptions: Vec<Box<str>>,
    /// Entries of at least `WINDOW` bytes, by their first `WINDOW` bytes.
    buckets: HashMap<u128, Vec<usize>>,
    /// Non-empty entries shorter than `WINDOW` bytes.
    short: Vec<usize>,
}

impl DescriptionIndex {
    /// Indexes `descriptions`; entry `i` is the `i`-th description.
    pub(crate) fn new<'a>(descriptions: impl IntoIterator<Item = &'a str>) -> DescriptionIndex {
        let descriptions: Vec<Box<str>> = descriptions.into_iter().map(Box::from).collect();
        let mut buckets: HashMap<u128, Vec<usize>> = HashMap::new();
        let mut short = Vec::new();
        for (entry, d) in descriptions.iter().enumerate() {
            match d.as_bytes().get(..WINDOW) {
                Some(prefix) => buckets.entry(key(prefix)).or_default().push(entry),
                None if !d.is_empty() => short.push(entry),
                None => {}
            }
        }
        DescriptionIndex {
            descriptions,
            buckets,
            short,
        }
    }

    /// The entry of the longest description `prompt` contains (lowest
    /// entry on equal length), or `None` when it contains none.
    pub(crate) fn longest_in(&self, prompt: &str) -> Option<usize> {
        // `(len, Reverse(entry))` orders matches by the winner rule.
        let mut best = None;
        for &entry in &self.short {
            let d = &*self.descriptions[entry];
            if prompt.contains(d) {
                best = best.max(Some((d.len(), Reverse(entry))));
            }
        }
        let bytes = prompt.as_bytes();
        for (at, window) in bytes.windows(WINDOW).enumerate() {
            let Some(entries) = self.buckets.get(&key(window)) else {
                continue;
            };
            for &entry in entries {
                let d = self.descriptions[entry].as_bytes();
                if bytes[at..].starts_with(d) {
                    best = best.max(Some((d.len(), Reverse(entry))));
                }
            }
        }
        best.map(|(_, Reverse(entry))| entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptions_shorter_than_the_window_are_found() {
        let index = DescriptionIndex::new(["pod", "a pod", "", "deployment"]);
        assert_eq!(index.longest_in("write a pod spec"), Some(1));
        assert_eq!(index.longest_in("one pod"), Some(0));
        assert_eq!(index.longest_in("a deployment and a pod"), Some(3));
        assert_eq!(index.longest_in("a service"), None);
        // The empty description is contained in every prompt but never wins.
        assert_eq!(index.longest_in(""), None);
    }

    #[test]
    fn longer_descriptions_beat_short_ones() {
        let index = DescriptionIndex::new(["pod", "Create a pod named web-frontend."]);
        assert_eq!(
            index.longest_in("Q: Create a pod named web-frontend.\n"),
            Some(1)
        );
        assert_eq!(index.longest_in("Create a pod named web"), Some(0));
    }

    #[test]
    fn equal_lengths_go_to_the_lowest_entry() {
        let a = "Create a Service that exposes port 80.";
        let b = "Create a Service that exposes port 81.";
        assert_eq!(a.len(), b.len());
        let index = DescriptionIndex::new([a, b, a]);
        // `b` occurs first in the prompt, but `a` is the lower entry.
        assert_eq!(index.longest_in(&format!("{b}\n{a}")), Some(0));
        assert_eq!(index.longest_in(b), Some(1));
        // A duplicate description resolves to its first entry.
        let dup = DescriptionIndex::new([b, a, a]);
        assert_eq!(dup.longest_in(a), Some(1));
    }

    #[test]
    fn a_long_shared_prefix_shares_one_bucket() {
        let short = "Create a Kubernetes Deployment named web";
        let long = "Create a Kubernetes Deployment named web-frontend with 3 replicas";
        let other = "Create a Kubernetes Deployment named api";
        let index = DescriptionIndex::new([short, long, other]);
        assert_eq!(index.buckets.len(), 1);
        assert_eq!(index.longest_in(&format!(">> {long} <<")), Some(1));
        assert_eq!(index.longest_in(&format!(">> {short}-backend <<")), Some(0));
        assert_eq!(index.longest_in(&format!("{other}{short}")), Some(0));
        assert_eq!(
            index.longest_in("Create a Kubernetes Deployment named w"),
            None
        );
    }

    #[test]
    fn multibyte_descriptions_whose_window_splits_a_character() {
        // Five 3-byte characters fill 15 bytes, so the 16-byte window ends
        // inside the sixth.
        let zh = "创建一个名为web的部署，副本数为3。";
        assert!(!zh.is_char_boundary(WINDOW));
        // A different sixth character with the same lead byte: both
        // descriptions share one window, and only the full compare tells
        // them apart.
        let sibling = "创建一个名义上的服务。";
        assert_eq!(zh.as_bytes()[..WINDOW], sibling.as_bytes()[..WINDOW]);
        assert_ne!(zh.chars().nth(5), sibling.chars().nth(5));
        let index = DescriptionIndex::new([sibling, zh]);
        assert_eq!(index.buckets.len(), 1);
        assert_eq!(index.longest_in(&format!("问题：{zh}\n")), Some(1));
        assert_eq!(index.longest_in(&format!("问题：{sibling}\n")), Some(0));
        assert_eq!(index.longest_in("创建一个名为"), None);
        // The description minus its final character no longer matches.
        let cut = zh.trim_end_matches('。');
        assert_eq!(index.longest_in(cut), None);
    }
}
