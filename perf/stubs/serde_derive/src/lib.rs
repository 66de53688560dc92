//! Offline stand-in for `serde_derive` (see `perf/README.md`, "Offline
//! build"). It derives the stand-in `serde::Serialize` and
//! `serde::Deserialize` for the shapes this repository declares: structs
//! with named fields, newtype and tuple structs, and enums that are
//! externally tagged (the default) or internally tagged (`tag = ".."`),
//! with `rename_all = "snake_case"`, `default`, `default = "path"` and
//! `skip_serializing_if = "path"`. Anything else is a compile error that
//! names the construct, never a silently different encoding.
//!
//! There is no `syn` in an offline build, so the item is read straight
//! from the token stream and the impl is written out as source text.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Item::serialize_impl)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Item::deserialize_impl)
}

fn expand(input: TokenStream, render: fn(&Item) -> Result<String, String>) -> TokenStream {
    let source = match parse_item(input).and_then(|item| render(&item)) {
        Ok(source) => source,
        Err(message) => format!(
            "compile_error!({:?});",
            format!("serde stand-in: {message}")
        ),
    };
    source.parse().expect("derive output is valid Rust")
}

/// `#[serde(..)]` options, of a container, a variant or a field.
#[derive(Default)]
struct Attrs {
    tag: Option<String>,
    rename_all: Option<String>,
    /// `Some(None)` is a bare `default`, `Some(Some(path))` is `default = "path"`.
    default: Option<Option<String>>,
    skip_serializing_if: Option<String>,
}

struct Field {
    name: String,
    attrs: Attrs,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// Generic parameters as written, bounds included: `'a, T: Clone`.
    generics_decl: Vec<String>,
    attrs: Attrs,
    body: Body,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();
    let attrs = take_attrs(&mut tokens)?;
    skip_visibility(&mut tokens);
    let keyword = expect_ident(&mut tokens)?;
    let name = expect_ident(&mut tokens)?;
    let generics_decl = take_generics(&mut tokens)?;
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "where") {
        return Err(format!("`where` clause on `{name}` is not supported"));
    }
    let body = match (keyword.as_str(), tokens.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Shape::Named(parse_named_fields(g.stream())?))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Shape::Tuple(count_tuple_fields(g.stream())))
        }
        ("struct", _) => Body::Struct(Shape::Unit),
        ("enum", Some(TokenTree::Group(g))) => Body::Enum(parse_variants(g.stream())?),
        (other, _) => return Err(format!("cannot derive for `{other} {name}`")),
    };
    Ok(Item {
        name,
        generics_decl,
        attrs,
        body,
    })
}

/// Consumes leading `#[..]` attributes and folds the `serde` ones.
fn take_attrs(tokens: &mut Tokens) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        let Some(TokenTree::Group(group)) = tokens.next() else {
            return Err("malformed attribute".into());
        };
        let mut inner = group.stream().into_iter();
        match (inner.next(), inner.next()) {
            (Some(TokenTree::Ident(i)), Some(TokenTree::Group(args)))
                if i.to_string() == "serde" =>
            {
                parse_serde_args(args.stream(), &mut attrs)?;
            }
            _ => {}
        }
    }
    Ok(attrs)
}

fn parse_serde_args(args: TokenStream, attrs: &mut Attrs) -> Result<(), String> {
    let mut tokens = args.into_iter().peekable();
    while let Some(token) = tokens.next() {
        let key = match token {
            TokenTree::Ident(i) => i.to_string(),
            TokenTree::Punct(p) if p.as_char() == ',' => continue,
            other => return Err(format!("unexpected `{other}` in #[serde(..)]")),
        };
        let value = if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            tokens.next();
            match tokens.next() {
                Some(TokenTree::Literal(lit)) => {
                    Some(lit.to_string().trim_matches('"').to_string())
                }
                _ => return Err(format!("#[serde({key} = ..)] needs a string literal")),
            }
        } else {
            None
        };
        match (key.as_str(), value) {
            ("tag", Some(v)) => attrs.tag = Some(v),
            ("rename_all", Some(v)) if v == "snake_case" => attrs.rename_all = Some(v),
            ("default", v) => attrs.default = Some(v),
            ("skip_serializing_if", Some(v)) => attrs.skip_serializing_if = Some(v),
            (key, _) => return Err(format!("#[serde({key})] is not supported")),
        }
    }
    Ok(())
}

fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

fn expect_ident(tokens: &mut Tokens) -> Result<String, String> {
    match tokens.next() {
        Some(TokenTree::Ident(i)) => Ok(i.to_string()),
        other => Err(format!("expected an identifier, found {other:?}")),
    }
}

/// Consumes `<..>` after the item name and splits it at top-level commas.
fn take_generics(tokens: &mut Tokens) -> Result<Vec<String>, String> {
    if !matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Ok(Vec::new());
    }
    tokens.next();
    let (mut params, mut current, mut depth) = (Vec::new(), String::new(), 1usize);
    for token in tokens.by_ref() {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 1 => {
                    params.push(std::mem::take(&mut current));
                    continue;
                }
                _ => {}
            }
            if depth == 0 {
                break;
            }
            // A lifetime is the punct `'` glued to the ident that follows.
            current.push(p.as_char());
            if p.as_char() != '\'' {
                current.push(' ');
            }
            continue;
        }
        let _ = write!(current, "{token} ");
    }
    if !current.trim().is_empty() {
        params.push(current);
    }
    Ok(params.into_iter().map(|p| p.trim().to_string()).collect())
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut tokens = body.into_iter().peekable();
    let mut fields = Vec::new();
    while tokens.peek().is_some() {
        let attrs = take_attrs(&mut tokens)?;
        skip_visibility(&mut tokens);
        let name = expect_ident(&mut tokens)?;
        skip_to_comma(&mut tokens);
        fields.push(Field { name, attrs });
    }
    Ok(fields)
}

/// Skips a field's `: Type` (or a variant's `= discriminant`) and its comma.
fn skip_to_comma(tokens: &mut Tokens) {
    let mut depth = 0usize;
    for token in tokens.by_ref() {
        if let TokenTree::Punct(p) = token {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => return,
                _ => {}
            }
        }
    }
}

fn count_tuple_fields(body: TokenStream) -> usize {
    let mut tokens = body.into_iter().peekable();
    let mut count = 0;
    while tokens.peek().is_some() {
        skip_to_comma(&mut tokens);
        count += 1;
    }
    count
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut tokens = body.into_iter().peekable();
    let mut variants = Vec::new();
    while tokens.peek().is_some() {
        take_attrs(&mut tokens)?;
        let name = expect_ident(&mut tokens)?;
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Shape::Unit,
        };
        skip_to_comma(&mut tokens);
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

/// serde's `snake_case`: an underscore before every capital but the first.
fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, ch) in name.chars().enumerate() {
        if ch.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(ch.to_lowercase());
    }
    out
}

impl Item {
    fn wire_name(&self, variant: &str) -> String {
        match self.attrs.rename_all {
            Some(_) => snake_case(variant),
            None => variant.to_string(),
        }
    }

    /// `impl<'a, T: Clone + BOUND> TRAIT for Name<'a, T>`.
    fn impl_header(&self, trait_path: &str) -> String {
        let mut decl = Vec::new();
        let mut names = Vec::new();
        for param in &self.generics_decl {
            let name = param.split(':').next().unwrap_or(param).trim().to_string();
            if param.starts_with('\'') {
                decl.push(param.clone());
            } else if param.contains(':') {
                decl.push(format!("{param} + {trait_path}"));
            } else {
                decl.push(format!("{param}: {trait_path}"));
            }
            names.push(name);
        }
        let (decl, names) = if decl.is_empty() {
            (String::new(), String::new())
        } else {
            (
                format!("<{}>", decl.join(", ")),
                format!("<{}>", names.join(", ")),
            )
        };
        format!("impl{decl} {trait_path} for {}{names}", self.name)
    }

    fn serialize_impl(&self) -> Result<String, String> {
        let name = &self.name;
        let body = match &self.body {
            Body::Struct(Shape::Unit) => "out.put_null();".to_string(),
            Body::Struct(Shape::Tuple(1)) => "::serde::Serialize::serialize(&self.0, out);".into(),
            Body::Struct(Shape::Tuple(n)) => {
                let items: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
                ser_seq(&items)
            }
            Body::Struct(Shape::Named(fields)) => {
                format!(
                    "out.begin_map(); {} out.end_map();",
                    ser_fields(fields, "&self.")
                )
            }
            Body::Enum(variants) => {
                let mut arms = String::new();
                for v in variants {
                    let wire = self.wire_name(&v.name);
                    let (pattern, inner) = match &v.shape {
                        Shape::Unit => (String::new(), None),
                        Shape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let inner = if *n == 1 {
                                "::serde::Serialize::serialize(f0, out);".to_string()
                            } else {
                                ser_seq(&binds)
                            };
                            (format!("({})", binds.join(", ")), Some(inner))
                        }
                        Shape::Named(fields) => {
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            (
                                format!("{{ {} }}", binds.join(", ")),
                                Some(ser_fields(fields, "")),
                            )
                        }
                    };
                    let code = match (&self.attrs.tag, &v.shape, inner) {
                        (None, _, None) => format!("out.put_str({wire:?});"),
                        (None, Shape::Named(_), Some(inner)) => format!(
                            "out.begin_map(); out.map_key({wire:?}); out.begin_map(); {inner} \
                             out.end_map(); out.end_map();"
                        ),
                        (None, _, Some(inner)) => {
                            format!(
                                "out.begin_map(); out.map_key({wire:?}); {inner} out.end_map();"
                            )
                        }
                        (Some(tag), Shape::Tuple(_), _) => {
                            return Err(format!(
                                "tuple variant `{name}::{}` under tag = {tag:?} is not supported",
                                v.name
                            ))
                        }
                        (Some(tag), _, inner) => format!(
                            "out.begin_map(); out.map_key({tag:?}); out.put_str({wire:?}); {} \
                             out.end_map();",
                            inner.unwrap_or_default()
                        ),
                    };
                    let _ = write!(arms, "{name}::{}{pattern} => {{ {code} }} ", v.name);
                }
                format!("match self {{ {arms} }}")
            }
        };
        Ok(format!(
            "{} {{ fn serialize<S: ::serde::Serializer + ?Sized>(&self, out: &mut S) {{ {body} }} }}",
            self.impl_header("::serde::Serialize")
        ))
    }

    fn deserialize_impl(&self) -> Result<String, String> {
        let name = &self.name;
        let body = match &self.body {
            Body::Struct(Shape::Unit) => format!("let _ = value; Ok({name})"),
            Body::Struct(Shape::Tuple(1)) => {
                format!("Ok({name}(::serde::Deserialize::deserialize(value)?))")
            }
            Body::Struct(Shape::Tuple(n)) => format!("Ok({})", de_seq(name, *n, "value")),
            Body::Struct(Shape::Named(fields)) => format!(
                "let map = ::serde::de::expect_map(value, {name:?})?; Ok({name} {})",
                de_fields(fields)
            ),
            Body::Enum(variants) => {
                let mut unit_arms = String::new();
                let mut data_arms = String::new();
                for v in variants {
                    let wire = self.wire_name(&v.name);
                    let path = format!("{name}::{}", v.name);
                    match (&v.shape, &self.attrs.tag) {
                        (Shape::Unit, _) => {
                            let _ = write!(unit_arms, "{wire:?} => Ok({path}), ");
                        }
                        (Shape::Named(fields), Some(_)) => {
                            let _ =
                                write!(data_arms, "{wire:?} => Ok({path} {}), ", de_fields(fields));
                        }
                        (Shape::Named(fields), None) => {
                            let _ = write!(
                                data_arms,
                                "{wire:?} => {{ let map = ::serde::de::expect_map(inner, {path:?})?; \
                                 Ok({path} {}) }} ",
                                de_fields(fields)
                            );
                        }
                        (Shape::Tuple(1), None) => {
                            let _ = write!(
                                data_arms,
                                "{wire:?} => Ok({path}(::serde::Deserialize::deserialize(inner)?)), "
                            );
                        }
                        (Shape::Tuple(n), None) => {
                            let _ = write!(
                                data_arms,
                                "{wire:?} => Ok({}), ",
                                de_seq(&path, *n, "inner")
                            );
                        }
                        (Shape::Tuple(_), Some(tag)) => {
                            return Err(format!(
                                "tuple variant `{path}` under tag = {tag:?} is not supported"
                            ))
                        }
                    }
                }
                let unknown =
                    format!("other => Err(::serde::Error::unknown_variant({name:?}, other)),");
                match &self.attrs.tag {
                    Some(tag) => format!(
                        "let map = ::serde::de::expect_map(value, {name:?})?; \
                         match ::serde::de::tag_of(map, {tag:?}, {name:?})? {{ \
                         {unit_arms} {data_arms} {unknown} }}"
                    ),
                    None => format!(
                        "match ::serde::de::variant_of(value, {name:?})? {{ \
                         (tag, None) => match tag {{ {unit_arms} {unknown} }}, \
                         (tag, Some(inner)) => match tag {{ {data_arms} \
                         other => {{ let _ = inner; Err(::serde::Error::unknown_variant({name:?}, other)) }} }}, }}"
                    ),
                }
            }
        };
        Ok(format!(
            "{} {{ fn deserialize(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> \
             {{ {body} }} }}",
            self.impl_header("::serde::Deserialize")
        ))
    }
}

/// `[a, b]` of the given place expressions.
fn ser_seq(items: &[String]) -> String {
    let mut code = "out.begin_seq();".to_string();
    for item in items {
        let _ = write!(
            code,
            " out.seq_item(); ::serde::Serialize::serialize({item}, out);"
        );
    }
    code + " out.end_seq();"
}

/// The `"key": value` pairs of named fields; `access` is `&self.` for a
/// struct and empty for match bindings, which are references already.
fn ser_fields(fields: &[Field], access: &str) -> String {
    let mut code = String::new();
    for f in fields {
        let place = format!("{access}{}", f.name);
        let put = format!(
            "out.map_key({:?}); ::serde::Serialize::serialize({place}, out);",
            f.name
        );
        match &f.attrs.skip_serializing_if {
            Some(skip) => {
                let _ = write!(code, "if !{skip}({place}) {{ {put} }} ");
            }
            None => code.push_str(&put),
        }
    }
    code
}

/// `{ a: .., b: .. }` read from the object `map`.
fn de_fields(fields: &[Field]) -> String {
    let mut code = "{ ".to_string();
    for f in fields {
        let name = &f.name;
        let _ = match &f.attrs.default {
            None => write!(code, "{name}: ::serde::de::field(map, {name:?})?, "),
            Some(None) => write!(
                code,
                "{name}: ::serde::de::field_or(map, {name:?}, ::std::default::Default::default)?, "
            ),
            Some(Some(path)) => write!(
                code,
                "{name}: ::serde::de::field_or(map, {name:?}, {path})?, "
            ),
        };
    }
    code + "}"
}

/// `path(a, b)` read from the array `source` of exactly `n` items.
fn de_seq(path: &str, n: usize, source: &str) -> String {
    let items: Vec<String> = (0..n)
        .map(|i| format!("::serde::Deserialize::deserialize(&items[{i}])?"))
        .collect();
    format!(
        "{{ let items = ::serde::de::expect_seq({source}, {n}, {path:?})?; {path}({}) }}",
        items.join(", ")
    )
}
