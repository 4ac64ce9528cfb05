//! A live view is catalog state: its definition is a log record, and
//! so is every write under it.
//!
//! On an `OPEN`ed store, `LET V = CONSOLIDATE Flies` followed by a
//! hundred writes into `Flies` appends records and writes no
//! checkpoint: the engine's `persist.checkpoints` does not move, the
//! store keeps its checkpoint file, and a tailer of the store crosses
//! no rollover. A restart from a copy of the store and a WAL-fed replica
//! then hold `V` as a live view, not a plain relation, so one more write
//! to `Flies` leaves `V` byte-identical on all three. The same holds
//! with a `RENAME`, an in-place `CONSOLIDATE` or an `EXPLICATE` of a
//! plain relation in the history.
//!
//! Separately: a `LET` of a taken name is refused before any of its
//! plan runs, and an `OPEN` of a store whose image this build cannot
//! decode fails without writing to it.

use std::path::{Path, PathBuf};

use hrdm_hql::{Engine, ExecutorHandle, Replica};
use hrdm_persist::WalTailer;

/// Instances written into `Flies`, one assert and one retract each.
const WRITTEN: usize = 50;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hrdm_views_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(dir.with_extension("restart"));
    dir
}

/// A restart at this instant: `OPEN` a copy of the store in a fresh
/// engine.
fn restart_from_copy(dir: &Path) -> Engine {
    let copy = dir.with_extension("restart");
    copy_store(dir, &copy);
    let restarted = Engine::new();
    restarted
        .execute(&format!("OPEN \"{}\";", copy.display()))
        .unwrap();
    restarted
}

fn copy_store(dir: &Path, copy: &Path) {
    std::fs::create_dir_all(copy).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
}

/// The store's checkpoint file names.
fn checkpoints(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("checkpoint-"))
        .collect();
    names.sort();
    names
}

/// `history` runs between the `LET` and the writes under the view.
fn views_follow_their_sources(tag: &str, history: &str) {
    let dir = temp_store(tag);
    let primary = Engine::new();
    let mut setup = format!(
        "OPEN \"{}\" SYNC EVERY 1; CREATE DOMAIN Animal; \
         CREATE CLASS Bird UNDER Animal; CREATE CLASS Penguin UNDER Bird; \
         CREATE INSTANCE Tweety OF Bird; CREATE INSTANCE Paul OF Penguin; \
         CREATE RELATION Flies (Creature: Animal); ASSERT Flies (ALL Bird); \
         ASSERT NOT Flies (ALL Penguin); CREATE RELATION Walks (Creature: Animal); \
         ASSERT Walks (ALL Bird); ASSERT NOT Walks (Paul);",
        dir.display()
    );
    for i in 0..WRITTEN {
        setup.push_str(&format!("CREATE INSTANCE I{i} OF Bird;"));
    }
    primary.execute(&setup).unwrap();
    let at_open = checkpoints(&dir);
    let mut tailer = WalTailer::attach(&dir);
    tailer.poll().unwrap();
    let rollovers = tailer.metrics().counter("ship.rollovers").get();
    let written = primary.metrics().counter("persist.checkpoints").get();

    primary.execute("LET V = CONSOLIDATE Flies;").unwrap();
    primary.execute(history).unwrap();
    for i in 0..WRITTEN {
        for stmt in [
            format!("ASSERT NOT Flies (I{i});"),
            format!("RETRACT Flies (I{i});"),
        ] {
            primary.execute(&stmt).unwrap();
            tailer.poll().unwrap();
        }
    }
    assert_eq!(
        primary.metrics().counter("persist.checkpoints").get(),
        written,
        "{tag}: a write under a live view wrote a checkpoint"
    );
    assert_eq!(checkpoints(&dir), at_open, "{tag}");
    assert_eq!(
        tailer.metrics().counter("ship.rollovers").get(),
        rollovers,
        "{tag}: the log rolled over under a live view"
    );

    let restarted = restart_from_copy(&dir);
    let replica = Replica::attach(&dir);
    replica.sync().unwrap();
    for (engine, who) in [
        (&primary, "live"),
        (&restarted, "restart"),
        (replica.engine(), "replica"),
    ] {
        assert!(engine.snapshot().is_view("V"), "{tag}: V on the {who}");
    }

    let write = "ASSERT NOT Flies (Tweety);";
    primary.execute(write).unwrap();
    restarted.execute(write).unwrap();
    replica.sync().unwrap();
    let show = primary.execute_read("SHOW V;", 0).unwrap();
    assert_eq!(restarted.execute_read("SHOW V;", 0).unwrap(), show, "{tag}");
    assert_eq!(replica.execute_read("SHOW V;", 0).unwrap(), show, "{tag}");
    assert!(
        show[0].contains("Tweety"),
        "{tag}: V followed Flies: {show:?}"
    );
    let catalog = primary.snapshot().render_stable();
    assert_eq!(restarted.snapshot().render_stable(), catalog, "{tag}");
    assert_eq!(
        replica.engine().snapshot().render_stable(),
        catalog,
        "{tag}"
    );

    drop((restarted, replica));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(dir.with_extension("restart")).unwrap();
}

#[test]
fn views_follow_their_sources_after_a_restart_and_on_a_replica() {
    views_follow_their_sources("plain", "SHOW V;");
}

#[test]
fn a_rename_in_the_history_is_a_record_too() {
    views_follow_their_sources("rename", "RENAME RELATION Walks TO Moves;");
}

#[test]
fn an_in_place_consolidate_in_the_history_is_a_record_too() {
    views_follow_their_sources("consolidate", "CONSOLIDATE Flies;");
}

#[test]
fn an_in_place_explicate_in_the_history_is_a_record_too() {
    views_follow_their_sources("explicate", "EXPLICATE Walks;");
}

/// The `LET` checks its name before it plans: a refused one runs no
/// plan node (each opens a span on the calling thread), while the same
/// derivation under a fresh name does.
#[test]
fn a_let_of_a_taken_name_is_refused_before_any_plan_runs() {
    let engine = Engine::new();
    engine
        .execute(
            "CREATE DOMAIN D; CREATE CLASS A UNDER D; CREATE RELATION A1 (V: D); \
             CREATE RELATION B1 (V: D); ASSERT A1 (ALL A); CREATE RELATION Flies (V: D);",
        )
        .unwrap();
    let plan_spans = |script: &str| {
        let (result, trace) =
            hrdm_obs::trace::capture("let", || engine.execute(script).map(|_| ()));
        let spans = trace
            .nodes()
            .into_iter()
            .filter(|n| ["Scan", "Union", "Canonicalize"].contains(&n.name))
            .count();
        (result, spans)
    };
    let (refused, spans) = plan_spans("LET Flies = UNION A1 B1;");
    assert_eq!(refused.unwrap_err().kind(), "duplicate");
    assert_eq!(spans, 0, "the refused LET ran its plan");
    // With both the name and the derivation bad, the name is reported.
    let (refused, _) = plan_spans("LET Flies = UNION A1 Nope;");
    assert_eq!(refused.unwrap_err().kind(), "duplicate");
    let (defined, spans) = plan_spans("LET Fresh = UNION A1 B1;");
    defined.unwrap();
    assert!(spans >= 2, "a LET that runs shows its plan nodes ({spans})");
}

/// Rewrite the image in the checkpoint file at `path` with `edit`, which
/// keeps its length, and the file's checksum to match: an intact
/// checkpoint, as a writer of another build would leave it.
fn rewrite_image(path: &Path, edit: impl FnOnce(&mut [u8])) {
    let mut bytes = std::fs::read(path).unwrap();
    // Magic (8 bytes), LSN (8), LEB128 image length, CRC-32 (4), image.
    let mut crc_at = 16;
    while bytes[crc_at] & 0x80 != 0 {
        crc_at += 1;
    }
    crc_at += 1;
    edit(&mut bytes[crc_at + 4..]);
    let crc = hrdm_persist::codec::crc32(&bytes[crc_at + 4..]);
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

/// The files of a store by name, with their bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// An `OPEN` whose newest checkpoint verifies but holds an image of an
/// earlier format version, or a view that no longer derives, fails
/// with that error's kind. It neither recovers an older or empty
/// catalog in its place nor begins a generation over the store.
#[test]
fn an_open_of_an_image_that_does_not_decode_fails_and_writes_nothing() {
    let dir = temp_store("undecodable");
    Engine::new()
        .execute(&format!(
            "OPEN \"{}\"; CREATE DOMAIN Animal; CREATE CLASS Bird UNDER Animal; \
             CREATE RELATION Flies (Creature: Animal); ASSERT Flies (ALL Bird); \
             LET Fliers = CONSOLIDATE Flies; CHECKPOINT;",
            dir.display()
        ))
        .unwrap();
    let [checkpoint] = &checkpoints(&dir)[..] else {
        panic!("one generation after CHECKPOINT")
    };
    let version_one = |image: &mut [u8]| image[6..10].copy_from_slice(&1u32.to_le_bytes());
    open_fails_untouched(&dir, checkpoint, "unsupported-version", version_one);
    let version_two = |image: &mut [u8]| image[6..10].copy_from_slice(&2u32.to_le_bytes());
    open_fails_untouched(&dir, checkpoint, "unsupported-version", version_two);
    let version_three = |image: &mut [u8]| image[6..10].copy_from_slice(&3u32.to_le_bytes());
    open_fails_untouched(&dir, checkpoint, "unsupported-version", version_three);
    let underivable = |image: &mut [u8]| {
        let at = image.windows(5).rposition(|w| w == b"Flies").unwrap();
        image[at..at + 5].copy_from_slice(b"Fliez");
    };
    open_fails_untouched(&dir, checkpoint, "rebuild", underivable);
    let reopened = Engine::new();
    reopened
        .execute(&format!("OPEN \"{}\";", dir.display()))
        .unwrap();
    assert!(reopened.snapshot().is_view("Fliers"));
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `OPEN` of a copy of `dir` whose checkpoint image `edit` rewrote fails
/// with error kind `kind` and leaves every file of the copy as it was.
fn open_fails_untouched(dir: &Path, checkpoint: &str, kind: &str, edit: fn(&mut [u8])) {
    let copy = dir.with_extension(kind);
    let _ = std::fs::remove_dir_all(&copy);
    copy_store(dir, &copy);
    rewrite_image(&copy.join(checkpoint), edit);
    let before = files(&copy);
    let opened = Engine::new().execute(&format!("OPEN \"{}\";", copy.display()));
    assert_eq!(opened.unwrap_err().kind(), kind);
    assert_eq!(files(&copy), before, "{kind}: OPEN wrote to the store");
    std::fs::remove_dir_all(&copy).unwrap();
}
