//! Database instances (sets of relations) and a ground-fact loader.

use crate::error::EngineError;
use crate::relation::Relation;
use crate::value::{Tuple, Value};
use lap_ir::{read_facts, write_quoted, Symbol};
use std::collections::BTreeMap;

/// A database instance `D`: a relation per name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Database {
    relations: BTreeMap<Symbol, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Gets a relation, if present.
    pub fn relation(&self, name: Symbol) -> Option<&Relation> {
        self.relations.get(&name)
    }

    /// Gets (creating if absent) the relation `name` with the given arity.
    /// Errors if the relation exists with a different arity.
    pub fn relation_mut(&mut self, name: Symbol, arity: usize) -> Result<&mut Relation, EngineError> {
        let rel = self
            .relations
            .entry(name)
            .or_insert_with(|| Relation::new(arity));
        if rel.arity() != arity {
            return Err(EngineError::ArityMismatch {
                expected: rel.arity(),
                found: arity,
            });
        }
        Ok(rel)
    }

    /// Inserts one fact.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> Result<(), EngineError> {
        let sym = Symbol::intern(name);
        let arity = tuple.len();
        self.relation_mut(sym, arity)?.insert(tuple)
    }

    /// Loads facts from text, one ground atom per `.`-terminated statement,
    /// in the grammar of [`lap_ir::read_facts`]:
    ///
    /// ```
    /// use lap_engine::Database;
    /// let db = Database::from_facts(
    ///     r#"B(1, "tolkien", "lotr"). B(2, "tolkien", "hobbit"). L(1)."#,
    /// )
    /// .unwrap();
    /// assert_eq!(db.relation(lap_ir::Symbol::intern("B")).unwrap().len(), 2);
    /// ```
    ///
    /// One pass: each relation's tuples are collected, arity checked per
    /// fact in text order, and its tuple set is built once at the end.
    pub fn from_facts(text: &str) -> Result<Database, EngineError> {
        let mut rows: BTreeMap<Symbol, (usize, Vec<Tuple>)> = BTreeMap::new();
        read_facts(text, |name, args| {
            let (arity, tuples) = rows.entry(name).or_insert((args.len(), Vec::new()));
            if *arity != args.len() {
                return Err(EngineError::ArityMismatch { expected: *arity, found: args.len() });
            }
            tuples.push(args.iter().map(|&c| Value::from(c)).collect());
            Ok(())
        })?;
        let relations = rows
            .into_iter()
            .map(|(name, (arity, tuples))| (name, Relation::from_tuples(arity, tuples)));
        Ok(Database { relations: relations.collect() })
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Relation)> {
        self.relations.iter().map(|(&s, r)| (s, r))
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }
}

impl std::fmt::Display for Database {
    /// Dumps the instance as ground facts, parseable by
    /// [`Database::from_facts`] (string values are re-quoted).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, rel) in self.iter() {
            for row in rel.iter() {
                write!(f, "{name}(")?;
                for (i, v) in row.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Str(s) => write_quoted(f, s.as_str())?,
                        other => write!(f, "{other}")?,
                    }
                }
                writeln!(f, ").")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_ground_facts() {
        let db = Database::from_facts(
            r#"
            % the bookstore
            B(1, "tolkien", "lotr").
            B(2, "tolkien", "hobbit").
            L(1).
            "#,
        )
        .unwrap();
        assert_eq!(db.total_tuples(), 3);
        let b = db.relation(Symbol::intern("B")).unwrap();
        assert!(b.contains(&[Value::int(1), Value::str("tolkien"), Value::str("lotr")]));
    }

    #[test]
    fn rejects_non_ground_facts() {
        assert!(matches!(
            Database::from_facts("B(x, 1)."),
            Err(EngineError::NotGround(_))
        ));
        // The error is positioned in the whole text, not in the statement.
        let text = "Price(1, \"a\").\nPrice(2, \"b\").\nPrice(3, \"a\\qb\").\n";
        match Database::from_facts(text) {
            Err(EngineError::NotGround(msg)) => {
                assert_eq!(msg, "parse error at 3:10: bad escape in string")
            }
            other => panic!("expected NotGround, got {other:?}"),
        }
    }

    #[test]
    fn rejects_negated_facts() {
        assert!(matches!(
            Database::from_facts("not B(1, 2)."),
            Err(EngineError::NotGround(_))
        ));
    }

    #[test]
    fn rejects_arity_drift() {
        assert!(Database::from_facts("R(1). R(1, 2).").is_err());
        // Errors come in text order: the drift before the bad character.
        assert_eq!(
            Database::from_facts("R(1). R(1, 2). @"),
            Err(EngineError::ArityMismatch { expected: 1, found: 2 })
        );
    }

    #[test]
    fn display_round_trips() {
        let mut db = Database::from_facts(
            r#"B(1, "tolkien", "the lord"). B(-2, "x y", "q\"z"). L(1)."#,
        )
        .unwrap();
        // Characters `{:?}` would escape in ways the lexer does not read.
        for s in ["a\tb", "a\rb", "a\u{7}b", "a\u{200b}b"] {
            db.insert("S", vec![Value::str(s)]).unwrap();
        }
        let dumped = db.to_string();
        let reloaded = Database::from_facts(&dumped).unwrap();
        assert_eq!(db, reloaded, "dump:\n{dumped}");
    }

    #[test]
    fn dots_and_comment_chars_inside_strings_survive() {
        let db = Database::from_facts(
            r#"
            B(1, "J.R.R. Tolkien", "100% wool #knit").  % trailing comment
            B(2, "esc \" quote", "a").
            "#,
        )
        .unwrap();
        assert_eq!(db.total_tuples(), 2);
        let b = db.relation(Symbol::intern("B")).unwrap();
        assert!(b.contains(&[
            Value::int(1),
            Value::str("J.R.R. Tolkien"),
            Value::str("100% wool #knit")
        ]));
        // And the dump round-trips.
        let reloaded = Database::from_facts(&db.to_string()).unwrap();
        assert_eq!(db, reloaded);
    }

    /// `insert` keeps the store sorted, so a relation filled one tuple at a
    /// time in any order equals the one `from_facts` sorts in one go.
    #[test]
    fn inserting_in_any_order_builds_the_loaded_relation() {
        use lap_prng::{SliceRandom, StdRng};
        let mut rng = StdRng::seed_from_u64(23);
        let words = ["zz ins", "aa ins", "m ins"];
        let facts: Vec<(i64, &str)> = (0..300)
            .map(|_| (rng.gen_range(-20..20i64), *words.choose(&mut rng).expect("words")))
            .collect();
        let text: String = facts.iter().map(|(i, s)| format!("R({i}, \"{s}\"). ")).collect();
        let loaded = Database::from_facts(&text).unwrap();
        let mut shuffled = facts.clone();
        shuffled.shuffle(&mut rng);
        let mut inserted = Database::new();
        for (i, s) in shuffled {
            inserted.insert("R", vec![Value::int(i), Value::str(s)]).unwrap();
        }
        assert_eq!(loaded, inserted);
        let rows: Vec<&Tuple> = inserted.relation(Symbol::intern("R")).unwrap().iter().collect();
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
    }

    #[test]
    fn insert_api() {
        let mut db = Database::new();
        db.insert("S", vec![Value::int(7)]).unwrap();
        db.insert("S", vec![Value::int(7)]).unwrap(); // dup ok
        assert_eq!(db.total_tuples(), 1);
    }
}
