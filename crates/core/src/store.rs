//! Retired: a crawl's one durable form is its state journal
//! ([`crate::journal`]), rebased atomically every
//! [`crate::CrawlConfig::checkpoint_every`] queries. This module keeps an
//! inert [`CheckpointStore`] only so code that still sets
//! [`crate::CrawlConfig::checkpoint_store`] compiles.

use std::path::PathBuf;

/// An inert stand-in for the retired snapshot store: it records nothing
/// and nothing reads it. Persist a crawl with
/// [`crate::CrawlConfig::journal_path`] instead.
#[derive(Debug, Clone)]
pub struct CheckpointStore;

impl CheckpointStore {
    /// Ignores `path`; no file is ever written there.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let _ = path.into();
        CheckpointStore
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::StateJournal;
    use crate::policy::PolicyKind;
    use crate::{CrawlConfig, Crawler};
    use dwc_server::{InterfaceSpec, WebDbServer};

    /// A crawl configured with a store and a journal saves its state only
    /// in the journal, and loading the journal back yields that state:
    /// nothing is written at the store's path, and no temporary is left.
    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dwc-store-{}-roundtrip", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("crawl.jnl");

        let table = dwc_datagen::Preset::Imdb.table(0.002, 3);
        let server = WebDbServer::new(table.clone(), InterfaceSpec::permissive(table.schema(), 10));
        let mut config =
            CrawlConfig::builder().journal_path(&journal).checkpoint_every(4).build().unwrap();
        config.checkpoint_store = Some(CheckpointStore::new(dir.join("crawl.ckpt")));
        let mut crawler = Crawler::new(&server, PolicyKind::GreedyLink.build(), config);
        crawler.add_seed("Language", "Language_0");
        while crawler.elapsed_rounds() < 200 && crawler.step().is_some() {}
        assert!(crawler.checkpoints_written() >= 2, "the crawl must rebase more than once");

        let rec = StateJournal::recover(&journal).unwrap().unwrap();
        assert_eq!(rec.checkpoint, crawler.checkpoint());
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["crawl.jnl", "crawl.jnl.bak"], "only the journal and its .bak");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
