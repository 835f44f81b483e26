//! A plain-Rust reference evaluator for the query shapes the workloads send.
//!
//! It runs on the benchmark's own copy of the generated inputs, shares no
//! code with the engine, and records the size every operator reveals
//! (filter survivors, join output `m`, group count) in `trail`.  Two
//! queries of one template with equal trails have equal public shape, so
//! the oblivious program must give them equal trace digests.

use std::collections::BTreeMap;

use obliv_join::schema::{Value, WideTable};
use obliv_join::Table;

/// A relation: named columns, rows of values, and the sizes revealed so far.
#[derive(Debug, Clone)]
pub struct Rel {
    pub cols: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    pub trail: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
pub enum Cmp {
    Ge,
    Lt,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Count,
    Sum,
    Min,
    Max,
}

impl Agg {
    pub fn text(self) -> &'static str {
        match self {
            Agg::Count => "count",
            Agg::Sum => "sum",
            Agg::Min => "min",
            Agg::Max => "max",
        }
    }
}

/// An owned [`value_key`], usable as a map key.
type OwnedKey = (u8, i128, Vec<u8>);

/// A total order on values of one column type.
pub fn value_key(v: &Value) -> (u8, i128, &[u8]) {
    match v {
        Value::U64(x) => (0, *x as i128, &[]),
        Value::I64(x) => (1, *x as i128, &[]),
        Value::Bool(b) => (2, *b as i128, &[]),
        Value::Bytes(b) => (3, 0, b.as_slice()),
    }
}

/// Rows in a canonical (sorted) order, so results compare as multisets.
pub fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .map(value_key)
            .collect::<Vec<_>>()
            .cmp(&b.iter().map(value_key).collect::<Vec<_>>())
    });
    rows
}

impl Rel {
    pub fn from_wide(t: &WideTable) -> Rel {
        Rel {
            cols: t
                .schema()
                .column_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows: (0..t.len()).map(|i| t.row_values(i)).collect(),
            trail: Vec::new(),
        }
    }

    pub fn from_pair(t: &Table) -> Rel {
        Rel {
            cols: vec!["key".into(), "value".into()],
            rows: t
                .iter()
                .map(|e| vec![Value::U64(e.key), Value::U64(e.value)])
                .collect(),
            trail: Vec::new(),
        }
    }

    /// Rows `lo..hi` only (one shard's positional chunk).
    pub fn chunk(&self, lo: usize, hi: usize) -> Rel {
        Rel {
            cols: self.cols.clone(),
            rows: self.rows[lo..hi].to_vec(),
            trail: self.trail.clone(),
        }
    }

    fn col(&self, name: &str) -> usize {
        self.cols
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("reference: no column {name} in {:?}", self.cols))
    }

    pub fn filter(mut self, col: &str, cmp: Cmp, constant: &Value) -> Rel {
        let c = self.col(col);
        let bound = value_key(constant);
        self.rows.retain(|r| {
            let v = value_key(&r[c]);
            match cmp {
                Cmp::Ge => v >= bound,
                Cmp::Lt => v < bound,
            }
        });
        self.trail.push(self.rows.len() as u64);
        self
    }

    /// Equi-join on `lkey = rkey`.  Output columns: the key (under the left
    /// key's name), the left's other columns, the right's other columns;
    /// names both sides share get `left_` / `right_` prefixes.
    pub fn join(self, right: &Rel, lkey: &str, rkey: &str) -> Rel {
        let (lk, rk) = (self.col(lkey), right.col(rkey));
        let lrest: Vec<usize> = (0..self.cols.len()).filter(|&i| i != lk).collect();
        let rrest: Vec<usize> = (0..right.cols.len()).filter(|&i| i != rk).collect();
        let name = |own: &str, other: &Rel, prefix: &str| {
            if other.cols.iter().any(|c| c == own) {
                format!("{prefix}{own}")
            } else {
                own.to_string()
            }
        };
        let mut cols = vec![self.cols[lk].clone()];
        cols.extend(lrest.iter().map(|&i| name(&self.cols[i], right, "left_")));
        cols.extend(rrest.iter().map(|&i| name(&right.cols[i], &self, "right_")));
        let mut by_key: BTreeMap<OwnedKey, Vec<&Vec<Value>>> = BTreeMap::new();
        for r in &right.rows {
            let (t, n, b) = value_key(&r[rk]);
            by_key.entry((t, n, b.to_vec())).or_default().push(r);
        }
        let mut rows = Vec::new();
        for l in &self.rows {
            let (t, n, b) = value_key(&l[lk]);
            if let Some(matches) = by_key.get(&(t, n, b.to_vec())) {
                for r in matches {
                    let mut row = vec![l[lk].clone()];
                    row.extend(lrest.iter().map(|&i| l[i].clone()));
                    row.extend(rrest.iter().map(|&i| r[i].clone()));
                    rows.push(row);
                }
            }
        }
        let mut trail = self.trail.clone();
        trail.extend(&right.trail);
        trail.push(rows.len() as u64);
        Rel { cols, rows, trail }
    }

    /// `AGG agg(col) BY by`: one row `[by, agg]` per distinct `by` value.
    pub fn group(self, by: &str, agg: Agg, col: Option<&str>) -> Rel {
        let b = self.col(by);
        let c = col.map(|c| self.col(c));
        let mut groups: BTreeMap<OwnedKey, (Value, Value)> = BTreeMap::new();
        for r in &self.rows {
            let (t, n, bytes) = value_key(&r[b]);
            let v = c.map(|c| r[c].clone());
            groups
                .entry((t, n, bytes.to_vec()))
                .and_modify(|(_, acc)| *acc = fold(agg, acc, v.as_ref()))
                .or_insert_with(|| (r[b].clone(), start(agg, v.as_ref())));
        }
        let out_name = match col {
            Some(c) => format!("{}_{c}", agg.text()),
            None => "count".into(),
        };
        let rows: Vec<Vec<Value>> = groups.into_values().map(|(k, a)| vec![k, a]).collect();
        let mut trail = self.trail;
        trail.push(rows.len() as u64);
        Rel {
            cols: vec![by.to_string(), out_name],
            rows,
            trail,
        }
    }
}

fn start(agg: Agg, v: Option<&Value>) -> Value {
    match agg {
        Agg::Count => Value::U64(1),
        _ => v.expect("aggregate needs a column").clone(),
    }
}

fn fold(agg: Agg, acc: &Value, v: Option<&Value>) -> Value {
    let v = v.cloned();
    match (agg, acc, v) {
        (Agg::Count, Value::U64(n), _) => Value::U64(n + 1),
        (Agg::Sum, Value::U64(a), Some(Value::U64(x))) => Value::U64(a.wrapping_add(x)),
        (Agg::Min, a, Some(x)) => {
            if value_key(&x) < value_key(a) {
                x
            } else {
                a.clone()
            }
        }
        (Agg::Max, a, Some(x)) => {
            if value_key(&x) > value_key(a) {
                x
            } else {
                a.clone()
            }
        }
        (agg, acc, v) => panic!("reference: unsupported {agg:?} over {acc:?} / {v:?}"),
    }
}

/// The answer the program must give, with the revealed-size trail.
#[derive(Debug, Clone)]
pub struct Expected {
    pub rows: Vec<Vec<Value>>,
    pub trail: Vec<u64>,
}

impl From<Rel> for Expected {
    fn from(rel: Rel) -> Expected {
        Expected {
            rows: canonical(rel.rows),
            trail: rel.trail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_filter_group_by_hand() {
        let l = Rel::from_pair(&Table::from_pairs(vec![(1, 10), (1, 20), (2, 5)]));
        let r = Rel::from_pair(&Table::from_pairs(vec![(1, 7), (2, 9), (3, 1)]));
        let out = l
            .join(&r, "key", "key")
            .filter("left_value", Cmp::Ge, &Value::U64(6))
            .group("key", Agg::Sum, Some("right_value"));
        assert_eq!(out.rows, vec![vec![Value::U64(1), Value::U64(14)]]);
        assert_eq!(out.trail, vec![3, 2, 1]);
    }
}
