//! The `repro` targets: one name per paper table (or ablation), run over
//! lazily built sessions. The `repro` binary and the golden-table test
//! (`tests/golden_tables.rs`) share this dispatch, so the golden pins
//! exactly what `repro --scale quick all` prints.

use std::cell::OnceCell;

use crate::{ablation, format::Table, session::Scale, tables, Session};

/// The three knowledge-base sessions, each built on first use.
pub struct Sessions {
    scale: Scale,
    kba: OnceCell<Session>,
    freebase: OnceCell<Session>,
    dbpedia: OnceCell<Session>,
}

impl Sessions {
    /// No session is built until a target asks for it.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            kba: OnceCell::new(),
            freebase: OnceCell::new(),
            dbpedia: OnceCell::new(),
        }
    }

    fn kba(&self) -> &Session {
        self.kba.get_or_init(|| {
            eprintln!("[repro] building KBA-like session…");
            Session::standard(self.scale, "kba")
        })
    }

    fn freebase(&self) -> &Session {
        self.freebase.get_or_init(|| {
            eprintln!("[repro] building Freebase-like session…");
            Session::standard(self.scale, "freebase")
        })
    }

    fn dbpedia(&self) -> &Session {
        self.dbpedia.get_or_init(|| {
            eprintln!("[repro] building DBpedia-like session…");
            Session::standard(self.scale, "dbpedia")
        })
    }

    fn all(&self) -> Vec<&Session> {
        vec![self.kba(), self.freebase(), self.dbpedia()]
    }
}

/// Every target `all` expands to, in run order.
pub const ALL_TARGETS: &[&str] = &[
    "kbstats",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
    "table13",
    "table14",
    "table15",
    "table16",
    "table17",
    "table18",
    "sec75",
    "ablations",
    "variants",
    "report",
];

/// Run one target; an unknown name prints a note and yields no table.
pub fn run_target(target: &str, sessions: &Sessions) -> Vec<Table> {
    let scale = sessions.scale;
    match target {
        "kbstats" => vec![tables::kb_stats(&sessions.all())],
        "table4" => vec![tables::table4(scale)],
        "table5" => vec![tables::table5(sessions.kba(), scale)],
        "table6" => vec![tables::table6(sessions.kba())],
        "table7" => vec![tables::table7(&sessions.all())],
        "table8" => vec![tables::table8(&sessions.all())],
        "table9" => vec![tables::table9(&sessions.all())],
        "table10" => vec![tables::table10(sessions.kba(), scale)],
        "table11" => vec![tables::table11(sessions.kba())],
        "table12" => vec![tables::table12(&sessions.all())],
        "table13" => vec![tables::table13(sessions.kba())],
        "table14" => vec![tables::table14(sessions.kba())],
        "table15" => vec![tables::table15(sessions.kba())],
        "table16" => vec![tables::table16(sessions.kba())],
        "table17" => vec![tables::table17(sessions.kba())],
        "table18" => vec![tables::table18(sessions.kba())],
        "sec75" => vec![ablation::entity_identification(sessions.kba(), 50)],
        "variants" => vec![tables::variants_extension(sessions.kba())],
        "report" => {
            // Model introspection dump (inspect API); not a paper table.
            let session = sessions.kba();
            print!(
                "{}",
                kbqa_core::inspect::report(&session.model, &session.world.store, 3)
            );
            Vec::new()
        }
        "ablations" => vec![
            ablation::refinement_ablation(sessions.kba(), 400),
            ablation::uniform_theta_ablation(sessions.kba()),
            ablation::decomposition_ablation(sessions.kba()),
        ],
        other => {
            eprintln!("[repro] unknown target: {other}");
            Vec::new()
        }
    }
}
