//! Request/response DTOs over the shared strict JSON module.
//!
//! Request bodies parse through [`hd_telemetry::json`] — the same strict
//! parser the exposition round-trips through — with limits sized to the
//! server's body cap. Parsing is deliberately unforgiving: unknown fields
//! are errors (they are almost always client typos: `"vektor"` silently
//! ignored would search with nothing), vectors must be finite numbers of
//! the engine's dimensionality, and knobs must be positive integers.

use std::time::Duration;

use hd_core::api::SearchRequest;
use hd_core::metric::Metric;
use hd_core::topk::Neighbor;
use hd_telemetry::json::{parse_with_limits, Json, ParseLimits};

/// A parsed `POST /v1/query` body: one or many query vectors plus the
/// resolved per-request knobs.
#[derive(Debug)]
pub struct QueryDto {
    pub vectors: Vec<Vec<f32>>,
    /// `true` when the client sent `"vectors"` (an explicit batch) rather
    /// than `"vector"`; it selects the reply shape (`"results"` or
    /// `"neighbors"`), not the engine call.
    pub batch: bool,
    pub req: SearchRequest,
}

/// A parsed `POST /v1/records` body.
#[derive(Debug)]
pub struct RecordDto {
    pub vector: Vec<f32>,
}

fn parse_body(body: &[u8], max_bytes: usize) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let limits = ParseLimits {
        max_bytes,
        ..ParseLimits::default()
    };
    parse_with_limits(text, &limits).map_err(|e| format!("invalid JSON: {e}"))
}

fn parse_vector(value: &Json, dim: usize, what: &str) -> Result<Vec<f32>, String> {
    let items = value
        .as_arr()
        .ok_or_else(|| format!("{what} must be an array of numbers"))?;
    if items.len() != dim {
        return Err(format!(
            "{what} has {} dimensions, the index serves {dim}",
            items.len()
        ));
    }
    items
        .iter()
        .map(|v| match v.as_f64() {
            Some(x) if x.is_finite() => Ok(x as f32),
            _ => Err(format!("{what} must contain only finite numbers")),
        })
        .collect()
}

fn parse_positive(value: &Json, field: &str) -> Result<usize, String> {
    match value.as_u64() {
        Some(v) if v >= 1 => Ok(v as usize),
        _ => Err(format!("{field} must be a positive integer")),
    }
}

/// Parses a query body. Accepts exactly one of `"vector"` (single) or
/// `"vectors"` (batch), plus optional `"k"`, `"candidates"`, `"refine"`,
/// `"metric"`, `"timeout_ms"`.
pub fn parse_query(body: &[u8], max_bytes: usize, dim: usize) -> Result<QueryDto, String> {
    let root = parse_body(body, max_bytes)?;
    let fields = root.as_obj().ok_or("body must be a JSON object")?;

    let mut vectors: Option<(Vec<Vec<f32>>, bool)> = None;
    let mut req = SearchRequest::new(10);
    for (key, value) in fields {
        match key.as_str() {
            "vector" => {
                if vectors.is_some() {
                    return Err("send either \"vector\" or \"vectors\", not both".into());
                }
                vectors = Some((vec![parse_vector(value, dim, "\"vector\"")?], false));
            }
            "vectors" => {
                if vectors.is_some() {
                    return Err("send either \"vector\" or \"vectors\", not both".into());
                }
                let arr = value
                    .as_arr()
                    .ok_or("\"vectors\" must be an array of arrays")?;
                if arr.is_empty() {
                    return Err("\"vectors\" must not be empty".into());
                }
                let parsed = arr
                    .iter()
                    .map(|v| parse_vector(v, dim, "each entry of \"vectors\""))
                    .collect::<Result<Vec<_>, _>>()?;
                vectors = Some((parsed, true));
            }
            "k" => req.k = parse_positive(value, "\"k\"")?,
            "candidates" => req.candidates = Some(parse_positive(value, "\"candidates\"")?),
            "refine" => req.refine = Some(parse_positive(value, "\"refine\"")?),
            "metric" => {
                let name = value.as_str().ok_or("\"metric\" must be a string")?;
                req.metric =
                    Some(Metric::parse(name).ok_or_else(|| format!("unknown metric {name:?}"))?);
            }
            "timeout_ms" => {
                let ms = parse_positive(value, "\"timeout_ms\"")?;
                req.time_budget = Some(Duration::from_millis(ms as u64));
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    let (vectors, batch) = vectors.ok_or("body must carry a \"vector\" or \"vectors\" field")?;
    Ok(QueryDto {
        vectors,
        batch,
        req,
    })
}

/// Parses an upsert body: `{"vector": [...]}`.
pub fn parse_record(body: &[u8], max_bytes: usize, dim: usize) -> Result<RecordDto, String> {
    let root = parse_body(body, max_bytes)?;
    let fields = root.as_obj().ok_or("body must be a JSON object")?;
    let mut vector = None;
    for (key, value) in fields {
        match key.as_str() {
            "vector" => vector = Some(parse_vector(value, dim, "\"vector\"")?),
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    Ok(RecordDto {
        vector: vector.ok_or("body must carry a \"vector\" field")?,
    })
}

/// `[{"id":…,"dist":…}, …]` for one answer.
pub fn neighbors_json(neighbors: &[Neighbor]) -> Json {
    Json::Arr(
        neighbors
            .iter()
            .map(|n| {
                Json::Obj(vec![
                    ("id".to_string(), Json::Num(n.id as f64)),
                    ("dist".to_string(), Json::Num(n.dist as f64)),
                ])
            })
            .collect(),
    )
}

/// The uniform error envelope: `{"error":{"code":…,"message":…}}`.
pub fn error_body(code: &str, message: &str) -> String {
    Json::Obj(vec![(
        "error".to_string(),
        Json::Obj(vec![
            ("code".to_string(), Json::Str(code.to_string())),
            ("message".to_string(), Json::Str(message.to_string())),
        ]),
    )])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: usize = 1024 * 1024;

    #[test]
    fn single_query_with_knobs() {
        let dto = parse_query(
            br#"{"vector":[1,2],"k":3,"candidates":64,"refine":32,"metric":"l2","timeout_ms":250}"#,
            MAX,
            2,
        )
        .unwrap();
        assert_eq!(dto.vectors, vec![vec![1.0, 2.0]]);
        assert!(!dto.batch);
        assert_eq!(dto.req.k, 3);
        assert_eq!(dto.req.candidates, Some(64));
        assert_eq!(dto.req.refine, Some(32));
        assert_eq!(dto.req.metric, Some(Metric::L2));
        assert_eq!(dto.req.time_budget, Some(Duration::from_millis(250)));
    }

    #[test]
    fn batch_query_defaults_k() {
        let dto = parse_query(br#"{"vectors":[[1,2],[3,4]]}"#, MAX, 2).unwrap();
        assert_eq!(dto.vectors.len(), 2);
        assert!(dto.batch);
        assert_eq!(dto.req.k, 10);
        assert_eq!(dto.req.candidates, None);
    }

    #[test]
    fn bad_query_bodies_are_rejected_with_reasons() {
        for (body, needle) in [
            (&br#"not json"#[..], "invalid JSON"),
            (br#"[1,2]"#, "JSON object"),
            (br#"{"k":3}"#, "\"vector\" or \"vectors\""),
            (br#"{"vector":[1,2],"vectors":[[1,2]]}"#, "not both"),
            (br#"{"vector":[1]}"#, "dimensions"),
            (br#"{"vector":[1,"x"]}"#, "finite numbers"),
            (br#"{"vector":[1,2],"k":0}"#, "positive integer"),
            (
                br#"{"vector":[1,2],"metric":"chebyshev"}"#,
                "unknown metric",
            ),
            (br#"{"vector":[1,2],"vektor":[1,2]}"#, "unknown field"),
            (br#"{"vectors":[]}"#, "not be empty"),
        ] {
            let err = parse_query(body, MAX, 2).unwrap_err();
            assert!(
                err.contains(needle),
                "{:?}: expected {needle:?} in {err:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn record_round_trip_and_rejections() {
        let rec = parse_record(br#"{"vector":[5,6]}"#, MAX, 2).unwrap();
        assert_eq!(rec.vector, vec![5.0, 6.0]);
        assert!(parse_record(br#"{"id":7}"#, MAX, 2).is_err());
        assert!(parse_record(br#"{}"#, MAX, 2).is_err());
    }

    #[test]
    fn envelope_and_neighbors_render_as_strict_json() {
        let body = error_body("bad_request", "oh \"no\"");
        let parsed = hd_telemetry::json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("error").unwrap().get("code").unwrap().as_str(),
            Some("bad_request")
        );
        let arr = neighbors_json(&[Neighbor::new(7, 0.5)]).render();
        let parsed = hd_telemetry::json::parse(&arr).unwrap();
        assert_eq!(
            parsed.as_arr().unwrap()[0].get("id").unwrap().as_u64(),
            Some(7)
        );
    }
}
